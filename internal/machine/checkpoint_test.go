package machine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"energysched/internal/rng"
	"energysched/internal/trace"
)

// TestCheckpointRoundTrip checkpoints every equivalence scenario at a
// pseudo-random mid-run instant on both engines, restores, and
// asserts the restored machine is indistinguishable from the original
// continuing uninterrupted: byte-identical event traces over the
// remainder, a tol-0 snapshot diff at the end, and byte-identical
// final checkpoints.
func TestCheckpointRoundTrip(t *testing.T) {
	engines := []Engine{EngineLockstep, EngineAsync}
	for si, sc := range engineScenarios() {
		for _, e := range engines {
			sc, si, e := sc, si, e
			t.Run(sc.name+"/"+e.String(), func(t *testing.T) {
				// Deterministic per-(scenario, engine) split point in
				// [1, runMS-1].
				r := rng.New(uint64(si)<<8 | uint64(e) + 0xc0ffee)
				k := 1 + int64(r.Uint64()%uint64(sc.runMS-1))
				rest := sc.runMS - k

				m := sc.build(e)
				m.Run(k)
				data, err := m.Checkpoint()
				if err != nil {
					t.Fatalf("checkpoint at %d ms: %v", k, err)
				}
				// Identical state must encode to identical bytes (the
				// farm's image cache keys on content).
				data2, err := m.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, data2) {
					t.Fatalf("repeated checkpoint of an unchanged machine differs (%d vs %d bytes)", len(data), len(data2))
				}

				recB := trace.New(0)
				m2, err := Restore(data, recB)
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				if err := m2.CheckInvariants(); err != nil {
					t.Fatalf("restored machine violates invariants: %v", err)
				}

				recA := trace.New(0)
				m.Cfg.Trace = recA
				m.Run(rest)
				m2.Run(rest)

				a, b := traceCSV(t, recA), traceCSV(t, recB)
				if a != b {
					t.Errorf("post-restore trace differs (%d vs %d bytes): %s",
						len(a), len(b), firstTraceDiff(a, b))
				}
				if diffs := DiffSnapshots(m.Snapshot(), m2.Snapshot(), 0); len(diffs) > 0 {
					t.Errorf("snapshot diverged after restore: %v", diffs)
				}
				ca, err := m.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				cb, err := m2.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ca, cb) {
					t.Errorf("final checkpoints differ (%d vs %d bytes)", len(ca), len(cb))
				}
			})
		}
	}
}

// TestRestoreRejectsOldVersion pins the version gate: an image written
// under an older layout must fail to restore instead of coming back
// wrong — version 1 on a different engine (Engine 0 was the retired
// batched engine), version 2 with per-step phase markers and Config
// fields the current format no longer carries, version 3 with the
// retired dormant-throttle state, version 4 without a checksum trailer
// and with the carried quantum cap, version 5 whose Config still held
// the shard count of the retired parallel engine.
func TestRestoreRejectsOldVersion(t *testing.T) {
	m := engineScenarios()[1].build(EngineAsync)
	m.Run(1000)
	for _, v := range []int{1, 2, 3, 4, 5} {
		st := m.captureState()
		st.Version = v
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		got, err := Restore(sealImage(buf.Bytes()), nil)
		if err == nil {
			t.Fatalf("restored a version-%d image onto engine %v", v, got.Cfg.Engine)
		}
		if want := fmt.Sprintf("checkpoint version %d", v); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name the image version %d", err, v)
		}
	}
}

// TestBranchDivergence asserts the fan-out contract: branches of one
// machine are bit-exact copies until reseeded, same-seed branches stay
// bit-exact, and different seeds actually diverge.
func TestBranchDivergence(t *testing.T) {
	scs := engineScenarios()
	sc := scs[1] // steady-state: always-busy stochastic workload
	m := sc.build(EngineAsync)
	m.Run(5000)

	runAndSnap := func(b *Machine) []byte {
		b.Run(5000)
		data, err := b.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	b1, err := m.Branch(nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m.Branch(nil)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := m.Branch(nil)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := m.Branch(nil)
	if err != nil {
		t.Fatal(err)
	}
	b1.Reseed(7)
	b2.Reseed(7)
	b3.Reseed(8)

	d1, d2, d3, d4 := runAndSnap(b1), runAndSnap(b2), runAndSnap(b3), runAndSnap(b4)
	if !bytes.Equal(d1, d2) {
		t.Error("same-seed branches diverged")
	}
	if bytes.Equal(d1, d3) {
		t.Error("different-seed branches did not diverge")
	}
	if bytes.Equal(d1, d4) {
		t.Error("reseeded branch did not diverge from the unseeded one")
	}

	// The parent was only read: it must continue exactly like an
	// untouched branch of itself.
	dm := runAndSnap(m)
	if !bytes.Equal(dm, d4) {
		t.Error("parent diverged from its own un-reseeded branch")
	}
}

// engineScenarioNamed returns the equivalence scenario of that name.
func engineScenarioNamed(name string) engineScenario {
	for _, sc := range engineScenarios() {
		if sc.name == name {
			return sc
		}
	}
	panic("no equivalence scenario " + name)
}

// malformedImageCases are the structural mutations of a decoded image
// that Restore must reject, each on an equivalence scenario run for
// 2 s on the async engine.
var malformedImageCases = []struct {
	name     string
	scenario string // steady-state: no throttle, no unit thermal, no DVFS
	mutate   func(st *machineState)
}{
	{"unit temperatures without unit thermal", "steady-state", func(st *machineState) {
		st.UnitTempC = [][]float64{{50}}
	}},
	{"throttle on an unthrottled machine", "steady-state", func(st *machineState) {
		st.Throttles = []throttleSnapshot{{LimitW: 10}}
	}},
	{"extra power tracker", "steady-state", func(st *machineState) {
		st.Power = append(st.Power, st.Power[0])
	}},
	{"missing counter bank", "steady-state", func(st *machineState) {
		st.Banks = st.Banks[:len(st.Banks)-1]
	}},
	{"missing thermal node", "steady-state", func(st *machineState) {
		st.NodeTempC = st.NodeTempC[1:]
	}},
	{"extra dispatch", "steady-state", func(st *machineState) {
		st.Dispatches = append(st.Dispatches, dispatchSnapshot{TaskID: -1})
	}},
	{"extra monitor series", "steady-state", func(st *machineState) {
		st.TPSeries = append(st.TPSeries, nil)
	}},
	{"short idle ticks", "steady-state", func(st *machineState) {
		st.IdleTicks = nil
	}},
	{"DVFS state on a fixed-frequency machine", "steady-state", func(st *machineState) {
		st.DVFS = &dvfsSnapshot{}
	}},
	{"no async state on an async machine", "steady-state", func(st *machineState) {
		st.Async = nil
	}},
	{"short parked flags", "steady-state", func(st *machineState) {
		st.Async.Parked = st.Async.Parked[:1]
	}},
	{"task on a CPU past the layout", "steady-state", func(st *machineState) {
		st.Tasks[0].CPU = len(st.RQs)
	}},
	{"task on a negative CPU", "steady-state", func(st *machineState) {
		st.Tasks[0].CPU = -1
	}},
	{"runqueue holding another CPU's task", "steady-state", func(st *machineState) {
		for c := range st.RQs {
			if st.RQs[c].CurrentID >= 0 {
				st.RQs[(c+1)%len(st.RQs)].QueuedIDs = append(st.RQs[(c+1)%len(st.RQs)].QueuedIDs, st.RQs[c].CurrentID)
				return
			}
		}
		panic("no running task")
	}},
	{"runqueue holding an unknown task", "steady-state", func(st *machineState) {
		st.RQs[0].QueuedIDs = append(st.RQs[0].QueuedIDs, 1<<30)
	}},
	{"short unit temperatures on one core", "dvfs-unit-thermal", func(st *machineState) {
		st.UnitTempC[0] = st.UnitTempC[0][1:]
	}},
	{"extra unit throttle", "dvfs-unit-thermal", func(st *machineState) {
		st.UnitThrottles = append(st.UnitThrottles, st.UnitThrottles[0])
	}},
	{"short P-state vector", "dvfs-unit-thermal", func(st *machineState) {
		st.DVFS.FreqIdx = st.DVFS.FreqIdx[:1]
	}},
	{"P-state past the ladder", "dvfs-unit-thermal", func(st *machineState) {
		st.DVFS.FreqIdx[0] = 99
	}},
	{"negative P-state", "dvfs-unit-thermal", func(st *machineState) {
		st.DVFS.FreqIdx[0] = -1
	}},
	{"pending P-state past the ladder", "dvfs-unit-thermal", func(st *machineState) {
		if st.DVFS.PendingIdx[0] < 0 {
			st.DVFS.NPending++ // keep the count consistent
		}
		st.DVFS.PendingIdx[0] = 99
	}},
	{"pending P-state below none", "dvfs-unit-thermal", func(st *machineState) {
		if st.DVFS.PendingIdx[0] >= 0 {
			st.DVFS.NPending-- // keep the count consistent
		}
		st.DVFS.PendingIdx[0] = -2
	}},
	{"pending count disagrees with the entries", "dvfs-unit-thermal", func(st *machineState) {
		st.DVFS.NPending++
	}},
	{"extra parked flag", "dvfs-unit-thermal", func(st *machineState) {
		st.Async.Parked = append(st.Async.Parked, false)
	}},
	{"extra package settle time", "dvfs-unit-thermal", func(st *machineState) {
		st.Async.PkgSettledMS = append(st.Async.PkgSettledMS, 0)
	}},
	{"faults state on a fault-free machine", "dvfs-unit-thermal", func(st *machineState) {
		st.Faults = &faultsSnapshot{}
	}},
}

// malformedImage returns the sealed image of tc's scenario with tc's
// mutation applied. It round-trips the bytes first, so the mutation
// works on a decoded image, as Restore sees it.
func malformedImage(tb testing.TB, tc int) []byte {
	tb.Helper()
	cs := malformedImageCases[tc]
	m := engineScenarioNamed(cs.scenario).build(EngineAsync)
	m.Run(2000)
	data, err := m.Checkpoint()
	if err != nil {
		tb.Fatal(err)
	}
	var st machineState
	if err := gob.NewDecoder(bytes.NewReader(data[:len(data)-checksumLen])).Decode(&st); err != nil {
		tb.Fatal(err)
	}
	cs.mutate(&st)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		tb.Fatal(err)
	}
	return sealImage(buf.Bytes())
}

// TestRestoreRejectsMalformedImages pins that Restore answers a
// structurally inconsistent image with an error instead of a panic:
// every per-CPU, per-core and per-throttle slice must fit the machine
// the image's own Config builds, every task must sit on a real CPU, and
// every runqueue may only hold tasks that record that CPU, and every
// current or pending P-state must lie on the DVFS ladder.
func TestRestoreRejectsMalformedImages(t *testing.T) {
	for i, tc := range malformedImageCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Restore(malformedImage(t, i), nil); err == nil {
				t.Fatal("malformed image restored without an error")
			} else {
				t.Log(err)
			}
		})
	}

	// Bytes damaged after the fact: any single flipped bit, in the gob
	// image or in its checksum trailer, and a truncated image.
	m := engineScenarioNamed("dvfs-unit-thermal").build(EngineAsync)
	m.Run(2000)
	data, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(data, nil); err != nil {
		t.Fatalf("intact image: %v", err)
	}
	n := len(data)
	for _, off := range []int{0, 1, n / 7, n / 3, n / 2, n - checksumLen - 1, n - checksumLen, n - 1} {
		for _, bit := range []uint{0, 3, 7} {
			bad := bytes.Clone(data)
			bad[off] ^= 1 << bit
			if _, err := Restore(bad, nil); err == nil {
				t.Errorf("image with bit %d of byte %d of %d flipped restored without an error", bit, off, n)
			}
		}
	}
	for _, cut := range []int{0, 1, checksumLen, n / 2, n - 1} {
		if _, err := Restore(data[:cut], nil); err == nil {
			t.Errorf("image cut to %d of %d bytes restored without an error", cut, n)
		}
	}

	// A forged message count, resealed so the checksum passes: the
	// first gob message claims 2^29 bytes. Restore must refuse it for
	// less memory than a clean restore takes, not read toward the
	// claimed length.
	_, w, err := gobUint(data)
	if err != nil {
		t.Fatal(err)
	}
	forged := sealImage(append([]byte{0x100 - 4, 0x20, 0, 0, 0}, data[w:n-checksumLen]...))
	restoreAlloc := func(img []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Restore(img, nil)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	clean, err := restoreAlloc(data)
	if err != nil {
		t.Fatalf("intact image: %v", err)
	}
	got, err := restoreAlloc(forged)
	if err == nil {
		t.Fatal("image with a forged message count restored without an error")
	}
	if got >= clean {
		t.Errorf("forged message count cost %d B before %q, a clean restore %d B", got, err, clean)
	}
	t.Logf("forged count: %d B and %q; clean restore: %d B", got, err, clean)
}
