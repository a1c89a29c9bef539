package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"energysched/internal/experiments"
	"energysched/internal/farm"
	"energysched/internal/machine"
	"energysched/internal/sched"
	"energysched/internal/trace"
)

// countRounds is the traced pass's counting window: work counts are read
// over exactly this many chunks of the traced machine, so for one seed
// they repeat exactly between runs and between commits.
const countRounds = 30

// traceKinds maps trace event kinds to their per-layer count names.
var traceKinds = []struct{ kind, name string }{
	{"dispatch", "sched.dispatch"},
	{"slice_end", "sched.slice_end"},
	{"block", "workload.block"},
	{"wake", "workload.wake"},
	{"finish", "workload.finish"},
	{"spawn", "workload.spawn"},
	{"throttle_on", "thermal.throttle_on"},
	{"pstate", "dvfs.pstate"},
}

// counters are the cumulative work counts a machine exposes.
type counters struct {
	migrations [4]int64 // by sched.MigrationReason
	fires      [4]int64 // balance, idle-pull, hot, governor
	deadlines  sched.DeadlineStats
}

func readCounters(m *machine.Machine) counters {
	var c counters
	for r := range c.migrations {
		c.migrations[r] = m.MigrationCountByReason(sched.MigrationReason(r))
	}
	c.fires[0], c.fires[1], c.fires[2], c.fires[3] = m.DeadlineFires()
	c.deadlines = m.DeadlineStats()
	return c
}

// samples collects per-round values by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// tracedPass times each layer's public calls and counts each layer's
// work. Every round runs
//
//   - one chunk on a traced machine and one on an untraced twin in the
//     same state (the pair gives trace.overhead_frac, the twin the
//     allocation counts and machine.chunk_ms);
//   - one chunk on each alternative engine (async, parallel at 2 shards);
//   - the image read path: Restore and Branch with a recorder attached,
//     then experiments.MeasureSeed on the branch;
//   - the farm's request parse and row encode, and one cache-hit sweep
//     request both through Server.Direct and over HTTP;
//   - every missEvery-th round, the write path: Validate and Build with a
//     recorder attached, the warm-up, and Checkpoint.
//
// Work counts cover the traced machine's first countRounds chunks; at
// that point its snapshot must equal the twin's at tolerance 0.
func tracedPass(c *runCtx, w *workload, r *result) error {
	rec := trace.New(0)
	traced, err := w.build(defaultEngine, rec)
	if err != nil {
		return err
	}
	plain, err := w.build(defaultEngine, nil)
	if err != nil {
		return err
	}
	async, err := w.build(machine.EngineAsync, nil)
	if err != nil {
		return err
	}
	w2 := *w
	w2.Spec.Shards = 2
	parallel2, err := w2.build(machine.EngineParallel, nil)
	if err != nil {
		return err
	}
	image, err := plain.Checkpoint()
	if err != nil {
		return err
	}

	f, err := startFarm()
	if err != nil {
		return err
	}
	defer f.stop()
	req := w.request(w.WarmupMS, 0)
	reqBody, err := json.Marshal(req)
	if err != nil {
		return err
	}
	warm, err := f.sweep(req)
	if err != nil {
		return err
	}
	r.check("warming request", checkReply(w, warm, req, "miss"))

	window := countRounds
	if c.rounds > 0 {
		window = min(window, c.rounds)
	}
	start := readCounters(traced)
	rec.Reset()
	kinds := map[string]int{}
	var row0 experiments.SeedRow
	s := samples{}
	layerRec := trace.New(0)
	p := c.pacer(window)
	for i := 0; p.more(i); i++ {
		s.add("host.probe_ms", probe())

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		plain.Run(w.OpMS)
		untracedMS := msSince(t)
		runtime.ReadMemStats(&after)
		s.add("machine.chunk_ms", untracedMS)
		s.add("machine.allocs_per_chunk", float64(after.Mallocs-before.Mallocs))
		s.add("machine.alloc_kib_per_chunk", float64(after.TotalAlloc-before.TotalAlloc)/1024)

		t = time.Now()
		traced.Run(w.OpMS)
		s.add("trace.overhead_frac", msSince(t)/untracedMS-1)
		r.check("invariants", traced.CheckInvariants())
		if i < window {
			for k, n := range rec.CountByKind() {
				kinds[k] += n
			}
		}
		rec.Reset()
		if i == window-1 {
			r.check("traced vs untraced snapshot", sameSnapshot(plain.Snapshot(), traced.Snapshot()))
			r.check("migration counts", countWork(r, w, window, start, readCounters(traced), kinds))
		}

		t = time.Now()
		async.Run(w.OpMS)
		s.add("machine.async.sim_cpu_ms_per_s", w.simCPUMS()/(msSince(t)/1000))
		t = time.Now()
		parallel2.Run(w.OpMS)
		s.add("machine.parallel2.sim_cpu_ms_per_s", w.simCPUMS()/(msSince(t)/1000))

		// The image read path, as the farm runs it for every request.
		t = time.Now()
		restored, err := machine.Restore(image, layerRec)
		s.add("machine.restore_ms", msSince(t))
		if !r.check("restore", err) {
			continue
		}
		t = time.Now()
		branch, err := restored.Branch(layerRec)
		s.add("machine.branch_ms", msSince(t))
		if !r.check("branch", err) {
			continue
		}
		t = time.Now()
		row := experiments.MeasureSeed(branch, req.Seeds[0], w.OpMS)
		s.add("experiments.measure_seed_ms", msSince(t))
		layerRec.Reset()
		if i == 0 {
			row0 = row
		}
		err = nil
		if row != row0 {
			err = errors.New("MeasureSeed row differs from the first one")
		}
		r.check("measured row", err)
		s.add("farm.encode_us_per_row", encodeUS(row))
		s.add("farm.parse_request_us", parseUS(reqBody))

		// One cache-hit request in process and one over HTTP.
		direct := &firstRowWriter{start: time.Now()}
		err = f.srv.Direct(direct, req)
		if err == nil {
			err = w.checkBody(req, direct.buf.Bytes())
		}
		rep, herr := f.sweep(req)
		if herr == nil {
			herr = checkReply(w, rep, req, "hit")
		}
		if herr == nil && !bytes.Equal(rep.body, direct.buf.Bytes()) {
			herr = errors.New("HTTP body differs from the Server.Direct body")
		}
		if r.check("direct request", err) && r.check("http request", herr) {
			s.add("farm.direct_ttfr_hit_ms", direct.ttfr)
			s.add("farm.http_overhead_ms", rep.ttfr-direct.ttfr)
		}

		if i%missEvery != 0 {
			continue
		}
		// The image write path, as a cache miss runs it.
		t = time.Now()
		err = w.Spec.Validate()
		var m *machine.Machine
		if err == nil {
			m, err = w.Spec.Build(defaultEngine, layerRec)
		}
		s.add("scenario.build_ms", msSince(t))
		if !r.check("build", err) {
			continue
		}
		t = time.Now()
		m.Run(w.WarmupMS)
		s.add("machine.warmup_ms", msSince(t))
		t = time.Now()
		img, err := m.Checkpoint()
		s.add("machine.checkpoint_ms", msSince(t))
		layerRec.Reset()
		if err == nil && !bytes.Equal(img, image) {
			err = errImageDiffers
		}
		r.check("checkpoint", err)
	}

	for _, m := range []struct{ name, unit string }{
		{"scenario.build_ms", "ms"},
		{"machine.warmup_ms", "ms"},
		{"machine.checkpoint_ms", "ms"},
		{"machine.restore_ms", "ms"},
		{"machine.branch_ms", "ms"},
		{"machine.chunk_ms", "ms"},
		{"machine.allocs_per_chunk", "count"},
		{"machine.alloc_kib_per_chunk", "KiB"},
		{"experiments.measure_seed_ms", "ms"},
		{"farm.parse_request_us", "us"},
		{"farm.encode_us_per_row", "us"},
		{"farm.direct_ttfr_hit_ms", "ms"},
		{"farm.http_overhead_ms", "ms"},
		{"trace.overhead_frac", "ratio"},
		{"host.probe_ms", "ms"},
	} {
		r.set(m.name, m.unit, median(s[m.name]))
	}
	r.set("machine.async.sim_cpu_ms_per_s", "cpu-ms/s", fastRate(s["machine.async.sim_cpu_ms_per_s"]))
	r.set("machine.parallel2.sim_cpu_ms_per_s", "cpu-ms/s", fastRate(s["machine.parallel2.sim_cpu_ms_per_s"]))
	chunks := s["machine.chunk_ms"]
	p10 := fastTime(chunks)
	r.set("host.round_p50_over_p10", "ratio", estimate{Value: median(chunks).Value / p10.Value, N: p10.N, Beyond: p10.Beyond})
	r.setExact("machine.image_kib", "KiB", float64(len(image))/1024)
	return nil
}

// countWork records the work counts of the counting window per simulated
// second. The trace's migrate events must add up to the scheduler's
// per-reason migration counts.
func countWork(r *result, w *workload, window int, start, end counters, kinds map[string]int) error {
	simS := float64(window) * float64(w.OpMS) / 1000
	rate := func(name string, n int64) { r.setExact(name, "1/sim_s", float64(n)/simS) }
	for _, k := range traceKinds {
		rate(k.name, int64(kinds[k.kind]))
	}
	var migrated int64
	for reason := range start.migrations {
		n := end.migrations[reason] - start.migrations[reason]
		migrated += n
		rate("sched.migrate."+sched.MigrationReason(reason).String(), n)
	}
	for i, class := range []string{"balance", "idle_pull", "hot", "gov"} {
		rate("sched.deadline_fires."+class, end.fires[i]-start.fires[i])
	}
	d0, d1 := start.deadlines, end.deadlines
	rate("sched.deadline.hot_arms", d1.HotArms-d0.HotArms)
	rate("sched.deadline.hot_rearms", d1.HotRearms-d0.HotRearms)
	rate("sched.deadline.hot_stale", d1.HotStale-d0.HotStale)
	rate("sched.deadline.gov_arms", d1.GovArms-d0.GovArms)
	rate("sched.deadline.gov_rearms", d1.GovRearms-d0.GovRearms)
	rate("sched.deadline.gov_stale", d1.GovStale-d0.GovStale)
	if int64(kinds["migrate"]) != migrated {
		return fmt.Errorf("trace has %d migrate events, scheduler counted %d", kinds["migrate"], migrated)
	}
	return nil
}

// encodeUS is the time to encode one result row the way the farm streams
// it, averaged over a batch too short to time singly.
func encodeUS(row experiments.SeedRow) float64 {
	const n = 100
	enc := json.NewEncoder(io.Discard)
	t := time.Now()
	for range n {
		enc.Encode(row)
	}
	return msSince(t) * 1000 / n
}

// parseUS is the time the farm takes to decode one sweep request body.
func parseUS(body []byte) float64 {
	const n = 10
	t := time.Now()
	for range n {
		farm.ParseRequest(body)
	}
	return msSince(t) * 1000 / n
}

// probeBuf and probeSink feed and keep the host probe.
var (
	probeBuf  = make([]byte, 64<<10)
	probeSink [sha256.Size]byte
)

// probe times a fixed sha256 loop: host speed, independent of the code
// under test, so a reader can tell a slow host from slow code.
func probe() float64 {
	t := time.Now()
	for range 16 {
		probeSink = sha256.Sum256(probeBuf)
	}
	return msSince(t)
}
