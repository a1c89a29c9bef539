package machine

import (
	"runtime"
	"sync"

	"energysched/internal/topology"
	"energysched/internal/workload"
)

// EngineParallel: the async engine with its data-parallel step phases
// sharded along NUMA-node boundaries and executed on real goroutines.
//
// The paper's scheduler is NUMA-structured by design — balancing across
// node boundaries is the costliest, least frequent tier — and the
// simulator inherits that locality: almost all per-quantum work is
// per-CPU or per-core arithmetic that never reads another node's state.
// The engine exploits exactly that. Each quantum, three step phases
// fork across a bounded worker pool and join at a barrier:
//
//	secSpeed — halt decisions + SMT/warmup/DVFS speed resolution
//	secExec  — the execution/energy compute half of the sweep
//	secTherm — the per-core RC thermal integration
//
// Everything else stays serial, in the exact order the serial engines
// run it: throttle-group engagement and accounting, quantum planning,
// the canonical-order commit of staged sweep effects (execCommit),
// respawn placement, balancing/hot-check deadlines, governors, the
// recalibration loop, monitor samples, and parking.
//
// Determinism contract. The merge is not approximately deterministic —
// it is bit-identical to EngineAsync at every shard count:
//
//   - A shard owns whole NUMA nodes (topology.Layout.NodeShard), hence
//     whole packages and whole SMT cores. Every cross-CPU read inside a
//     forked phase (SMT sibling speeds, chip-coupled core powers) is
//     intra-package and therefore intra-shard, so shard execution order
//     cannot be observed.
//   - Forked phases write only CPU-/core-indexed state plus per-shard
//     staging. Global accumulators (TrueEnergyJ, EstimationErrJ,
//     WorkDoneMS), trace events, and queue mutations are applied by the
//     serial commit walking the global active list ascending — the same
//     per-accumulator float-add chains, the same event sequence, the
//     same placement reads as the serial sweep.
//   - Per-shard iteration preserves ascending CPU order within each
//     shard, and per-core/per-task updates are wholly owned by one
//     shard, so their internal accumulation order is unchanged too.
//
// The pool is persistent: workers are started lazily on the first
// multi-worker fork and hold only their job channel — never the
// Machine, which travels inside each job — so an abandoned Machine
// becomes unreachable, its cleanup closes the channels, and the workers
// exit. Fork/join costs no allocations: a buffered channel send per
// worker plus one WaitGroup cycle, which keeps the parallel engine
// inside the same zero-allocation steady-state envelope as the others
// (TestSteadyStateQuantumAllocs).
type parEngine struct {
	shards  int // node shards the data phases split into
	workers int // goroutines the shards multiplex onto (≤ shards)

	shardOfCPU  []int32   // logical CPU → shard
	shardOfCore []int32   // physical core → shard
	cpus        [][]int32 // per shard: active CPUs, ascending (stepCPUs split)
	cores       [][]int32 // per shard: active cores, ascending
	cpuGen      uint64    // stepListGen the sublists were built from
	coreGen     uint64

	// Per-fork broadcast parameters, written serially before the fork
	// and read by the workers after the channel receive (the send is
	// the happens-before edge).
	sec int
	dt  int64
	fdt float64
	// quantW is the section's shared factor over fdt: the metric sample
	// weight for secExec, the thermal retention for secTherm.
	quantW    float64
	throttled []bool

	peaks []float64             // per shard: secTherm's max end temperature
	tick  []workload.TickResult // per shard: the sweep's Tick scratch

	jobs    []chan *Machine // one per worker; closed by the machine cleanup
	wg      sync.WaitGroup
	started bool
}

// Forked step phases.
const (
	secSpeed = iota // phase 3b–4b: halt decisions, SMT, warmup, DVFS speed
	secExec         // phase 6 compute: execution, counters, energy, metric
	secTherm        // phase 7: per-core RC integration
)

// initParallel builds the shard partition. Called from New after
// initAsync (the parallel engine is the async engine plus the fork-join
// machinery); Cfg.Shards has been resolved to 1..Nodes.
func (m *Machine) initParallel() {
	layout := m.Cfg.Layout
	p := &parEngine{shards: m.Cfg.Shards}
	p.workers = runtime.GOMAXPROCS(0)
	if p.workers > p.shards {
		p.workers = p.shards
	}
	if p.workers < 1 {
		p.workers = 1
	}
	nCPU := layout.NumLogical()
	nCore := layout.NumCores()
	p.shardOfCPU = make([]int32, nCPU)
	for c := 0; c < nCPU; c++ {
		p.shardOfCPU[c] = int32(layout.NodeShard(layout.Node(topology.CPUID(c)), p.shards))
	}
	p.shardOfCore = make([]int32, nCore)
	for core := 0; core < nCore; core++ {
		p.shardOfCore[core] = int32(layout.NodeShard(layout.NodeOfCore(core), p.shards))
	}
	// Full capacity per shard: splitting the active lists must never
	// allocate, whatever the busy/idle mix.
	p.cpus = make([][]int32, p.shards)
	p.cores = make([][]int32, p.shards)
	for s := 0; s < p.shards; s++ {
		p.cpus[s] = make([]int32, 0, nCPU)
		p.cores[s] = make([]int32, 0, nCore)
	}
	p.peaks = make([]float64, p.shards)
	p.tick = make([]workload.TickResult, p.shards)
	m.par = p
}

// fork runs one sharded section and waits for every shard to finish.
// With a single worker the shards run inline on the caller goroutine —
// the same code path minus the pool, which keeps shards=1 (and any
// GOMAXPROCS=1 host) free of synchronization overhead.
func (p *parEngine) fork(m *Machine, sec int, throttled []bool, dt int64, fdt, quantW float64) {
	p.sec, p.throttled, p.dt, p.fdt, p.quantW = sec, throttled, dt, fdt, quantW
	if sec == secTherm {
		p.splitCores(m)
	} else {
		p.splitCPUs(m)
	}
	if p.workers == 1 {
		for s := 0; s < p.shards; s++ {
			p.runShard(m, s)
		}
		return
	}
	p.ensureWorkers(m)
	p.wg.Add(p.workers)
	for _, ch := range p.jobs {
		ch <- m
	}
	p.wg.Wait()
}

// runShard executes one shard of the current section. Worker w owns
// shards w, w+workers, … so a fixed pool covers any shard count.
func (p *parEngine) runShard(m *Machine, s int) {
	switch p.sec {
	case secSpeed:
		m.haltDecideOn(p.cpus[s], p.throttled)
		m.smtScaleOn(p.cpus[s])
	case secExec:
		m.execComputeOn(p.cpus[s], &p.tick[s], p.throttled, p.dt, p.fdt, p.quantW)
	case secTherm:
		p.peaks[s] = m.thermalOn(p.cores[s], p.dt, p.fdt, p.quantW)
	}
}

// splitCPUs refreshes the per-shard views of the active-CPU list,
// rebuilding only when the global list was rematerialized since the
// last split (park/unpark churn); each sublist preserves the global
// ascending order.
func (p *parEngine) splitCPUs(m *Machine) {
	list := m.stepCPUs()
	if p.cpuGen == m.stepListGen {
		return
	}
	p.cpuGen = m.stepListGen
	for s := range p.cpus {
		p.cpus[s] = p.cpus[s][:0]
	}
	for _, c := range list {
		s := p.shardOfCPU[c]
		p.cpus[s] = append(p.cpus[s], c)
	}
}

// splitCores is splitCPUs for the active-core list.
func (p *parEngine) splitCores(m *Machine) {
	list := m.stepCoreList()
	if p.coreGen == m.stepCoresGen {
		return
	}
	p.coreGen = m.stepCoresGen
	for s := range p.cores {
		p.cores[s] = p.cores[s][:0]
	}
	for _, core := range list {
		s := p.shardOfCore[core]
		p.cores[s] = append(p.cores[s], core)
	}
}

// ensureWorkers starts the pool on the first multi-worker fork. The
// worker goroutines hold only their job channel — the Machine arrives
// by value in each job and is dropped at its end — so an abandoned
// Machine becomes unreachable, the cleanup installed here closes the
// channels, and the pool exits. Machines are created by the thousand
// in fuzz campaigns, so leaking a pool per machine is not an option.
func (p *parEngine) ensureWorkers(m *Machine) {
	if p.started {
		return
	}
	p.started = true
	p.jobs = make([]chan *Machine, p.workers)
	for w := 0; w < p.workers; w++ {
		ch := make(chan *Machine, 1)
		p.jobs[w] = ch
		go func(w int, ch chan *Machine) {
			for job := range ch {
				pe := job.par
				for s := w; s < pe.shards; s += pe.workers {
					pe.runShard(job, s)
				}
				pe.wg.Done()
			}
		}(w, ch)
	}
	runtime.AddCleanup(m, func(chans []chan *Machine) {
		for _, ch := range chans {
			close(ch)
		}
	}, p.jobs)
}
