package sched

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEventQueueOrdersByTime(t *testing.T) {
	q := NewEventQueue(8)
	times := []int64{50, 10, 30, 20, 40}
	for i, at := range times {
		q.Push(at, i)
	}
	want := append([]int64(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for _, w := range want {
		if got, _, ok := q.Peek(); !ok || got != w {
			t.Fatalf("Peek = %d,%v, want %d", got, ok, w)
		}
		at, _, ok := q.Pop()
		if !ok || at != w {
			t.Fatalf("Pop = %d,%v, want %d", at, ok, w)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
	if _, _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reported ok")
	}
}

// Equal-time events must pop in insertion order, so a queue's pop
// sequence is a function of its push sequence alone.
func TestEventQueueStableForEqualTimes(t *testing.T) {
	q := NewEventQueue(0)
	q.Push(7, 100)
	q.Push(5, 0)
	q.Push(5, 1)
	q.Push(5, 2)
	for want := 0; want < 3; want++ {
		at, p, ok := q.Pop()
		if !ok || at != 5 || p != want {
			t.Fatalf("pop %d: got (%d,%d,%v)", want, at, p, ok)
		}
	}
	if at, p, ok := q.Peek(); !ok || at != 7 || p != 100 {
		t.Fatalf("Peek = (%d,%d,%v), want (7,100,true)", at, p, ok)
	}
}

func TestEventQueueRandomizedAgainstSort(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	q := NewEventQueue(0)
	type ev struct {
		at  int64
		seq int
	}
	var ref []ev
	for i := 0; i < 500; i++ {
		at := int64(r.Intn(100))
		q.Push(at, i)
		ref = append(ref, ev{at, i})
	}
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].at < ref[j].at })
	for i, want := range ref {
		at, p, ok := q.Pop()
		if !ok || at != want.at || p != want.seq {
			t.Fatalf("pop %d: got (%d,%d,%v), want (%d,%d)", i, at, p, ok, want.at, want.seq)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
	q.Push(3, 9)
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("Reset did not empty the queue")
	}
}

// Property test of the lazy-deletion discipline the deadline wheel's
// hot-check and governor heaps rest on (Wheel.nextArmed): owners never
// unlink entries — a re-armed CPU just pushes a duplicate with its new
// instant, a disarmed one leaves its entry to rot — and every consumer
// discards entries whose (payload, time) no longer matches the owner's
// model. The property: against a randomized interleaving of push /
// cancel / cancel-and-re-push / drain operations on a small CPU-ID
// space (lots of duplicates), the filtered queue must always surface
// exactly the model's live events, in time order, stably.
func TestEventQueueLazyDeletionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2006))
	const cpus = 8
	q := NewEventQueue(0)
	live := map[int]int64{} // cpu → currently valid wake time, if any

	// validPop drains stale entries and pops the next live event, or
	// reports none. Mirrors the engine's peek-discard loop.
	validPop := func() (int64, int, bool) {
		for {
			at, cpu, ok := q.Peek()
			if !ok {
				return 0, 0, false
			}
			if want, isLive := live[cpu]; isLive && want == at {
				q.Pop()
				return at, cpu, true
			}
			q.Pop() // stale duplicate: discard lazily
		}
	}

	now := int64(0)
	for round := 0; round < 2000; round++ {
		cpu := r.Intn(cpus)
		switch op := r.Intn(10); {
		case op < 5: // push (duplicate push if the CPU already has one)
			at := now + 1 + int64(r.Intn(50))
			q.Push(at, cpu)
			live[cpu] = at
		case op < 7: // cancel (task woke early; entry left to rot)
			delete(live, cpu)
		case op < 9: // interleaved cancel + re-push with a new time
			delete(live, cpu)
			at := now + 1 + int64(r.Intn(50))
			q.Push(at, cpu)
			live[cpu] = at
		default: // drain a few events and check them against the model
			for k := 0; k < 3; k++ {
				at, c, ok := validPop()
				if !ok {
					if len(live) != 0 {
						t.Fatalf("round %d: queue empty but %d live events remain", round, len(live))
					}
					break
				}
				want, isLive := live[c]
				if !isLive || want != at {
					t.Fatalf("round %d: surfaced (%d,%d) not live in model", round, at, c)
				}
				if at < now {
					t.Fatalf("round %d: time went backwards (%d < %d)", round, at, now)
				}
				// Consuming an event advances the clock, as in the
				// engine: later pushes land strictly after it, so the
				// heap is exercised over a monotonically advancing
				// time base, not a fixed [1, 50] band.
				now = at
				delete(live, c)
			}
		}
	}

	// The loop must have consumed events, otherwise the monotone-clock
	// property above was never exercised.
	if now == 0 {
		t.Fatal("randomized run never drained an event; property vacuous")
	}

	// Final drain: the surviving live events must come out exactly
	// once each, in non-decreasing time order.
	prev := int64(-1)
	for {
		at, c, ok := validPop()
		if !ok {
			break
		}
		if at < prev {
			t.Fatalf("final drain out of order: %d after %d", at, prev)
		}
		prev = at
		if want, isLive := live[c]; !isLive || want != at {
			t.Fatalf("final drain surfaced stale (%d,%d)", at, c)
		}
		delete(live, c)
	}
	if len(live) != 0 {
		t.Fatalf("%d live events never surfaced: %v", len(live), live)
	}
	if q.Len() != 0 {
		t.Fatalf("stale entries left after drain: %d", q.Len())
	}
}
