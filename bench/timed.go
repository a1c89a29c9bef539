package main

import (
	"bytes"
	"time"

	"energysched/internal/experiments"
	"energysched/internal/farm"
	"energysched/internal/machine"
)

// missEvery spaces the cache-miss samples of a simulation workload's
// timed pass: one every missEvery rounds.
const missEvery = 2

// timedPass is the untraced pass that yields the end-to-end metrics.
func timedPass(c *runCtx, w *workload, r *result) error {
	if w.Farm {
		return timedFarm(c, w, r)
	}
	return timedSim(c, w, r)
}

// timedSim measures a simulation workload. Each round runs PerRound
// chunks on one long-lived warmed machine (the throughput sample), then
// a cache-hit sample: Restore the warm image and run one chunk. Every
// missEvery-th round adds a cache-miss sample: validate, build, warm up
// (the set-up sample), Checkpoint, run one chunk. Each sample's image
// and state are compared with the first ones at tolerance 0, outside
// the timers.
func timedSim(c *runCtx, w *workload, r *result) error {
	t := time.Now()
	m, err := w.build(defaultEngine, nil)
	if err != nil {
		return err
	}
	setups := []float64{msSince(t) / 1000}
	image, err := m.Checkpoint()
	if err != nil {
		return err
	}
	ref, err := machine.Restore(image, nil)
	if err != nil {
		return err
	}
	ref.Run(w.OpMS)
	want := ref.Snapshot()

	// The heap one more warmed machine and its image retain.
	heapMiB, err := retainedMiB(func() (any, error) {
		m, err := w.build(defaultEngine, nil)
		if err != nil {
			return nil, err
		}
		img, err := m.Checkpoint()
		if err == nil && !bytes.Equal(img, image) {
			err = errImageDiffers
		}
		r.check("warm image", err)
		return [2]any{m, img}, nil
	})
	if err != nil {
		return err
	}

	var rates, hits, misses []float64
	p := c.pacer(0)
	for i := 0; p.more(i); i++ {
		total := 0.0
		for range w.PerRound {
			t := time.Now()
			m.Run(w.OpMS)
			total += msSince(t)
		}
		if r.check("invariants", m.CheckInvariants()) {
			rates = append(rates, float64(w.PerRound)*w.opCPUMS()/(total/1000))
		}

		t := time.Now()
		hit, err := machine.Restore(image, nil)
		if err == nil {
			hit.Run(w.OpMS)
		}
		ms := msSince(t)
		if err == nil {
			err = sameSnapshot(want, hit.Snapshot())
		}
		if r.check("cache-hit sample", err) {
			hits = append(hits, ms)
		}

		if i%missEvery != 0 {
			continue
		}
		t = time.Now()
		miss, err := w.build(defaultEngine, nil)
		var img []byte
		setup := msSince(t) / 1000
		if err == nil {
			img, err = miss.Checkpoint()
		}
		if err == nil {
			miss.Run(w.OpMS)
		}
		ms = msSince(t)
		if err == nil && !bytes.Equal(img, image) {
			err = errImageDiffers
		}
		if err == nil {
			err = sameSnapshot(want, miss.Snapshot())
		}
		if r.check("cache-miss sample", err) {
			misses = append(misses, ms)
			setups = append(setups, setup)
		}
	}
	r.set("sim_cpu_ms_per_s", "cpu-ms/s", fastRate(rates))
	r.set("ttfr_hit_ms", "ms", fastTime(hits))
	r.set("ttfr_miss_ms", "ms", fastTime(misses))
	r.set("setup_s", "s", median(setups))
	r.setValue("heap_mb", "MiB", heapMiB)
	return nil
}

// timedFarm measures the farm workload: one closed-loop client on one
// keep-alive connection sends PerRound sweep requests a round, three
// cache hits to one forced miss (see farmRequest). Each round also takes
// a set-up sample: start a second server and wait for its first
// /v1/healthz. Every reply is checked — status, cache header, header
// line, rows in seed order, no error trailer — and every 10th request is
// replayed through Server.Direct.
func timedFarm(c *runCtx, w *workload, r *result) error {
	f, err := startFarm()
	if err != nil {
		return err
	}
	defer f.stop()
	// The first request warms the image every hit reuses.
	warm := w.request(w.WarmupMS, 0)
	first, err := f.sweep(warm)
	if err != nil {
		return err
	}
	r.check("warming request", checkReply(w, first, warm, "miss"))

	// The heap a second farm retains after serving one round in process.
	// Serving it over HTTP would add connection buffers whose lifetime
	// depends on timing.
	heapMiB, err := retainedMiB(func() (any, error) {
		srv := farm.NewServer(experiments.RunConfig{Jobs: farmJobs}, 0, nil)
		for j := range w.PerRound {
			req, _ := w.farmRequest(j)
			var body bytes.Buffer
			err := srv.Direct(&body, req)
			if err == nil {
				err = w.checkBody(req, body.Bytes())
			}
			r.check("in-process request", err)
		}
		return srv, nil
	})
	if err != nil {
		return err
	}

	var rates, hits, misses, setups []float64
	p := c.pacer(0)
	for i := 0; p.more(i); i++ {
		setup, err := farmSetup()
		if r.check("set-up sample", err) {
			setups = append(setups, setup)
		}
		total, ok := 0.0, true
		for k := range w.PerRound {
			j := i*w.PerRound + k
			req, cache := w.farmRequest(j)
			rep, err := f.sweep(req)
			if err == nil {
				err = checkReply(w, rep, req, cache)
			}
			if err == nil && j%10 == 0 {
				err = f.checkDirect(req, rep.body)
			}
			if !r.check("sweep request", err) {
				ok = false
				continue
			}
			total += rep.total
			if cache == "hit" {
				hits = append(hits, rep.ttfr)
			} else {
				misses = append(misses, rep.ttfr)
			}
		}
		if ok {
			rates = append(rates, float64(w.PerRound)*w.opCPUMS()/(total/1000))
		}
	}
	r.set("sim_cpu_ms_per_s", "cpu-ms/s", fastRate(rates))
	r.set("ttfr_hit_ms", "ms", fastTime(hits))
	r.set("ttfr_miss_ms", "ms", fastTime(misses))
	r.set("setup_s", "s", median(setups))
	r.setValue("heap_mb", "MiB", heapMiB)
	return nil
}
