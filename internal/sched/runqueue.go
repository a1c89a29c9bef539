package sched

import (
	"fmt"

	"energysched/internal/topology"
)

// Runqueue is one logical CPU's local queue of runnable tasks (§4.1:
// "every CPU executes tasks from its local runqueue only"). Current is
// the task holding the CPU; queued tasks wait in round-robin order.
//
// The paper extends Linux's runqueue with the CPU-specific power
// metrics (§5); in this reproduction those live in the scheduler's
// per-CPU CPUPower, and the runqueue contributes the task-derived
// *runqueue power* (§4.3): the average of the energy profiles of the
// tasks in the queue, which reflects a migration's effect immediately.
type Runqueue struct {
	// CPU is the logical CPU owning this queue.
	CPU topology.CPUID
	// Current is the task executing on the CPU, nil when idle.
	Current *Task

	queue []*Task // runnable tasks not currently executing, FIFO

	// ledger is the scheduler's occupancy ledger, shifted by every
	// mutation (Enqueue, PickNext, Deschedule, RemoveQueued); nil for
	// standalone runqueues.
	ledger *occupancy
}

// changed reports one occupancy mutation to the ledger: dLen is the
// change in Len, dQueued the change in the waiting-task count. The
// ledger's attached deadline wheel then re-arms this CPU.
func (rq *Runqueue) changed(dLen, dQueued int) {
	l := rq.ledger
	if l == nil {
		return
	}
	if dLen != 0 {
		l.node[l.topo.NodeOf[rq.CPU]] += int32(dLen)
		l.pkg[l.topo.PkgOf[rq.CPU]] += int32(dLen)
		switch n := rq.Len(); n {
		case 0:
			l.idle++
		case dLen:
			l.idle-- // was empty
		}
	}
	l.queued += dQueued
	if l.wheel != nil {
		l.wheel.refreshArming(int(rq.CPU), rq)
	}
}

// NewRunqueue creates an empty runqueue for a CPU.
func NewRunqueue(cpu topology.CPUID) *Runqueue {
	return &Runqueue{CPU: cpu}
}

// Len returns the number of runnable tasks, including Current — the
// "runqueue length" of the paper's load balancing discussion.
func (rq *Runqueue) Len() int {
	n := len(rq.queue)
	if rq.Current != nil {
		n++
	}
	return n
}

// Idle reports whether the CPU has nothing to run.
func (rq *Runqueue) Idle() bool { return rq.Len() == 0 }

// Enqueue adds a task to the tail of the queue and records its new
// home CPU.
func (rq *Runqueue) Enqueue(t *Task) {
	t.CPU = rq.CPU
	rq.queue = append(rq.queue, t)
	rq.changed(1, 1)
}

// PickNext pops the head of the queue into Current. It panics if a task
// is still running — the caller must deschedule first.
func (rq *Runqueue) PickNext() *Task {
	if rq.Current != nil {
		panic("sched: PickNext with a task still running")
	}
	if len(rq.queue) == 0 {
		return nil
	}
	rq.Current = rq.queue[0]
	copy(rq.queue, rq.queue[1:])
	rq.queue = rq.queue[:len(rq.queue)-1]
	rq.changed(0, -1)
	return rq.Current
}

// Deschedule removes Current from the CPU (timeslice end, block, or
// migration of the running task). requeue puts it back at the tail.
func (rq *Runqueue) Deschedule(requeue bool) *Task {
	t := rq.Current
	if t == nil {
		return nil
	}
	rq.Current = nil
	if requeue {
		rq.queue = append(rq.queue, t)
		rq.changed(0, 1)
	} else {
		rq.changed(-1, 0)
	}
	return t
}

// RemoveQueued unlinks a non-running task from the queue (used by the
// balancers, which — like Linux's — only move tasks that are not
// executing). It panics if the task is Current or not on this queue:
// both indicate a balancing bug.
func (rq *Runqueue) RemoveQueued(t *Task) {
	if t == rq.Current {
		panic("sched: RemoveQueued on the running task")
	}
	for i, q := range rq.queue {
		if q == t {
			rq.queue = append(rq.queue[:i], rq.queue[i+1:]...)
			rq.changed(-1, -1)
			return
		}
	}
	panic(fmt.Sprintf("sched: task %d not queued on CPU %d", t.ID, rq.CPU))
}

// Queued returns the tasks waiting in the queue (excluding Current).
// The returned slice is the queue's backing store; callers must not
// modify it.
func (rq *Runqueue) Queued() []*Task { return rq.queue }

// Tasks appends all runnable tasks (Current first, then the queue) to
// dst and returns it.
func (rq *Runqueue) Tasks(dst []*Task) []*Task {
	if rq.Current != nil {
		dst = append(dst, rq.Current)
	}
	return append(dst, rq.queue...)
}

// PowerSum returns the sum of the profiled powers of all runnable
// tasks.
func (rq *Runqueue) PowerSum() float64 {
	s := 0.0
	if rq.Current != nil {
		s += rq.Current.ProfiledWatts()
	}
	for _, t := range rq.queue {
		s += t.ProfiledWatts()
	}
	return s
}

// Power returns the runqueue power (§4.3): the average of the energy
// profiles of the tasks in the queue, 0 when idle.
func (rq *Runqueue) Power() float64 {
	n := rq.Len()
	if n == 0 {
		return 0
	}
	return rq.PowerSum() / float64(n)
}

// HottestQueued returns the queued (non-running) task with the highest
// profiled power, or nil if the queue is empty.
func (rq *Runqueue) HottestQueued() *Task {
	var best *Task
	for _, t := range rq.queue {
		if best == nil || t.ProfiledWatts() > best.ProfiledWatts() {
			best = t
		}
	}
	return best
}

// CoolestQueued returns the queued task with the lowest profiled power,
// or nil if the queue is empty.
func (rq *Runqueue) CoolestQueued() *Task {
	var best *Task
	for _, t := range rq.queue {
		if best == nil || t.ProfiledWatts() < best.ProfiledWatts() {
			best = t
		}
	}
	return best
}
