package sched

// Checkpoint-restore support. The scheduler's serializable state is
// small — runqueue occupancy and the per-CPU utilization windows. The
// per-domain load counts are derived from the occupancy (RebuildLoads),
// and the wheel's tables re-arm from the restored occupancy when the
// caller re-runs AttachDeadlines.

// UtilState is the serializable state of one UtilTracker.
type UtilState struct {
	BusyMS  float64
	SinceMS int64
}

// State captures the tracker for checkpointing.
func (u *UtilTracker) State() UtilState {
	return UtilState{BusyMS: u.busyMS, SinceMS: u.sinceMS}
}

// SetState restores a tracker captured by State.
func (u *UtilTracker) SetState(st UtilState) {
	u.busyMS = st.BusyMS
	u.sinceMS = st.SinceMS
}

// SetTasks overwrites the runqueue's occupancy verbatim, for checkpoint
// restore only: it bypasses the load counters and the wheel
// notification that Enqueue/PickNext maintain. After restoring every
// queue the caller must rebuild the domain counts (RebuildLoads) and
// re-attach the deadline wheel so its arming matches the occupancy.
func (rq *Runqueue) SetTasks(current *Task, queued []*Task) {
	rq.Current = current
	rq.queue = append(rq.queue[:0], queued...)
}

// RebuildLoads recomputes the per-node/per-package runnable counts from
// the runqueues' restored occupancy.
func (s *Scheduler) RebuildLoads() {
	for i := range s.loads.node {
		s.loads.node[i] = 0
	}
	for i := range s.loads.pkg {
		s.loads.pkg[i] = 0
	}
	for i, rq := range s.RQs {
		if n := int32(rq.Len()); n != 0 {
			s.loads.node[s.loads.nodeOf[i]] += n
			s.loads.pkg[s.loads.pkgOf[i]] += n
		}
	}
}
