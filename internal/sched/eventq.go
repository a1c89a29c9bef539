package sched

// EventQueue is a binary min-heap of timed events, behind the deadline
// wheel's armed hot-check and governor deadlines: each entry is a
// deadline in milliseconds with an opaque payload (a CPU index, or
// whatever else the owner keys its events by). The queue answers
// "when is the next event?" in O(1) and absorbs insertions and
// extractions in O(log n), replacing the per-plan linear scans over all
// pending events.
//
// Ordering is stable: events with equal times pop in insertion order
// (an internal sequence number breaks ties), so the pop sequence is a
// function of the push sequence alone.
//
// The queue supports lazy deletion: owners that cannot cheaply unlink
// stale entries (e.g. a CPU re-armed under a new deadline) just push a
// fresh entry and let the stale one surface at pop time, where it is
// recognized — via the owner's validity check — and discarded.
type EventQueue struct {
	heap []event
	seq  uint64
}

type event struct {
	at      int64
	seq     uint64
	payload int
}

// NewEventQueue returns an empty queue with room for n events.
func NewEventQueue(n int) *EventQueue {
	return &EventQueue{heap: make([]event, 0, n)}
}

// Len returns the number of pending events (including stale ones not
// yet lazily discarded).
func (q *EventQueue) Len() int { return len(q.heap) }

// Push schedules payload at time at.
func (q *EventQueue) Push(at int64, payload int) {
	q.heap = append(q.heap, event{at: at, seq: q.seq, payload: payload})
	q.seq++
	q.up(len(q.heap) - 1)
}

// Peek returns the earliest event's time and payload; ok is false when
// the queue is empty.
func (q *EventQueue) Peek() (at int64, payload int, ok bool) {
	if len(q.heap) == 0 {
		return NoDeadline, 0, false
	}
	return q.heap[0].at, q.heap[0].payload, true
}

// Pop removes and returns the earliest event; ok is false when the
// queue is empty.
func (q *EventQueue) Pop() (at int64, payload int, ok bool) {
	if len(q.heap) == 0 {
		return NoDeadline, 0, false
	}
	e := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return e.at, e.payload, true
}

// Reset empties the queue, keeping its storage.
func (q *EventQueue) Reset() { q.heap = q.heap[:0] }

// less orders by time, then insertion sequence.
func (q *EventQueue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *EventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *EventQueue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
}
