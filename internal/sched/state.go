package sched

// Checkpoint-restore support. The scheduler's serializable state is
// small — runqueue occupancy and the per-CPU utilization windows. The
// occupancy ledger is derived from the occupancy (RebuildLoads); the
// deadline wheel holds no state of its own to restore.

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
// restore only: it bypasses the occupancy ledger that Enqueue/PickNext
// shift. After restoring every queue the caller must rebuild the ledger
// (RebuildLoads).
func (rq *Runqueue) SetTasks(current *Task, queued []*Task) {
	rq.Current = current
	rq.queue = append(rq.queue[:0], queued...)
}

// RebuildLoads recomputes the whole occupancy ledger — node, package,
// queued and idle counts — from the runqueues' restored occupancy.
func (s *Scheduler) RebuildLoads() {
	l := &s.ledger
	clear(l.node)
	clear(l.pkg)
	l.queued, l.idle = 0, 0
	for i, rq := range s.RQs {
		n := int32(rq.Len())
		l.node[l.topo.NodeOf[i]] += n
		l.pkg[l.topo.PkgOf[i]] += n
		l.queued += len(rq.queue)
		if n == 0 {
			l.idle++
		}
	}
}
