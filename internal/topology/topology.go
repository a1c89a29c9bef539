// Package topology describes the CPU layout of the simulated
// multiprocessor and the Linux-style scheduler-domain hierarchy the
// energy-aware scheduler traverses (§4.1, Fig. 1 of the paper).
//
// The reference machine is the paper's IBM xSeries 445: two NUMA nodes,
// four physical Pentium 4 Xeon processors per node, two SMT threads per
// processor, for 16 logical CPUs. The package generalizes to any
// nodes × packages × cores × threads shape; multi-core packages (CMP)
// are the paper's §7 future-work extension — "extending energy-aware
// scheduling for use on a CMP is a matter of adding an additional layer
// to the domain hierarchy" — and add an "mc" level between the SMT and
// node levels.
//
// Logical CPU numbering follows the paper (§6.4): SMT sibling IDs differ
// in the most significant bit, so with C physical cores in the machine,
// logical CPU c and logical CPU c+C share core c. Cores are numbered
// consecutively within a package and packages consecutively within a
// node. On the reference machine (one core per package) CPU 0's sibling
// is CPU 8, CPUs 0–3 (and siblings 8–11) live on node 0, CPUs 4–7
// (12–15) on node 1.
package topology

import "fmt"

// CPUID identifies one logical CPU.
type CPUID int

// Layout describes the shape of the machine.
type Layout struct {
	// Nodes is the number of NUMA nodes. Must be >= 1.
	Nodes int
	// PackagesPerNode is the number of physical processors per node.
	// Must be >= 1.
	PackagesPerNode int
	// CoresPerPackage is the number of CPU cores per physical
	// processor; 0 and 1 both mean a single-core processor (the
	// paper's machine). Values > 1 model the §7 CMP extension.
	CoresPerPackage int
	// ThreadsPerPackage is the number of SMT threads per core; 1 means
	// SMT disabled. Must be >= 1.
	//
	// The name predates the CMP extension: on a single-core package it
	// is literally the threads per package.
	ThreadsPerPackage int
}

// XSeries445 is the paper's evaluation machine with SMT enabled:
// 2 nodes × 4 packages × 2 threads = 16 logical CPUs.
func XSeries445() Layout {
	return Layout{Nodes: 2, PackagesPerNode: 4, ThreadsPerPackage: 2}
}

// XSeries445NoSMT is the same machine with hyper-threading disabled in
// the BIOS, as in the paper's §6.1 first experiment: 8 logical CPUs.
func XSeries445NoSMT() Layout {
	return Layout{Nodes: 2, PackagesPerNode: 4, ThreadsPerPackage: 1}
}

// CMP2x2 is a §7-style chip-multiprocessor machine: one node with two
// dual-core packages, SMT off.
func CMP2x2() Layout {
	return Layout{Nodes: 1, PackagesPerNode: 2, CoresPerPackage: 2, ThreadsPerPackage: 1}
}

// Server64 is a larger-than-paper machine for scaling studies: two NUMA
// nodes of eight dual-core SMT packages each — 32 cores, 64 logical
// CPUs. The domain hierarchy gains all four levels (smt, mc, node,
// top).
func Server64() Layout {
	return Layout{Nodes: 2, PackagesPerNode: 8, CoresPerPackage: 2, ThreadsPerPackage: 2}
}

// Server256 is a large reference layout: four NUMA nodes of sixteen
// dual-core SMT packages — 128 cores, 256 logical CPUs.
func Server256() Layout {
	return Layout{Nodes: 4, PackagesPerNode: 16, CoresPerPackage: 2, ThreadsPerPackage: 2}
}

// Server1024 is the largest reference layout, the ROADMAP's 1024-CPU
// target for the O(busy) engine work: eight NUMA nodes of sixteen
// quad-core SMT packages — 512 cores, 1024 logical CPUs.
func Server1024() Layout {
	return Layout{Nodes: 8, PackagesPerNode: 16, CoresPerPackage: 4, ThreadsPerPackage: 2}
}

// MaxLogical bounds a layout's logical CPU count at four times
// Server1024. A machine allocates its per-CPU state up front, so the
// bound also bounds its memory.
const MaxLogical = 4096

// Validate reports an error if the layout is degenerate or wider than
// MaxLogical.
func (l Layout) Validate() error {
	if l.Nodes < 1 || l.PackagesPerNode < 1 || l.ThreadsPerPackage < 1 || l.CoresPerPackage < 0 {
		return fmt.Errorf("topology: invalid layout %+v: all dimensions must be >= 1", l)
	}
	// Multiply with the bound checked before each step, so a huge
	// dimension cannot overflow the product past it.
	n := 1
	for _, d := range [...]int{l.Nodes, l.PackagesPerNode, l.Cores(), l.ThreadsPerPackage} {
		if d > MaxLogical/n {
			return fmt.Errorf("topology: invalid layout %+v: more than %d logical CPUs", l, MaxLogical)
		}
		n *= d
	}
	return nil
}

// Cores returns the number of cores per package (>= 1).
func (l Layout) Cores() int {
	if l.CoresPerPackage < 1 {
		return 1
	}
	return l.CoresPerPackage
}

// NumPackages returns the number of physical processors.
func (l Layout) NumPackages() int { return l.Nodes * l.PackagesPerNode }

// NumCores returns the number of physical cores in the machine.
func (l Layout) NumCores() int { return l.NumPackages() * l.Cores() }

// NumLogical returns the number of logical CPUs.
func (l Layout) NumLogical() int { return l.NumCores() * l.ThreadsPerPackage }

// Core returns the physical core hosting the logical CPU.
func (l Layout) Core(cpu CPUID) int { return int(cpu) % l.NumCores() }

// Package returns the physical processor hosting the logical CPU.
func (l Layout) Package(cpu CPUID) int { return l.Core(cpu) / l.Cores() }

// Thread returns the SMT thread index of the logical CPU within its
// core.
func (l Layout) Thread(cpu CPUID) int { return int(cpu) / l.NumCores() }

// Node returns the NUMA node hosting the logical CPU.
func (l Layout) Node(cpu CPUID) int { return l.Package(cpu) / l.PackagesPerNode }

// CPUOfCore returns the logical CPU that is thread t of core c.
func (l Layout) CPUOfCore(c, t int) CPUID { return CPUID(t*l.NumCores() + c) }

// CPUOfPackage returns the logical CPU that is thread t of the first
// core of package p (the package's lowest-numbered CPU for t = 0).
func (l Layout) CPUOfPackage(p, t int) CPUID { return l.CPUOfCore(p*l.Cores(), t) }

// Siblings returns the logical CPUs sharing a physical core with cpu —
// the SMT sibling set, including cpu itself, in thread order. These
// share the core's functional units, so the §4.7 rules (no energy
// balancing, no hot-task destinations) apply among them.
func (l Layout) Siblings(cpu CPUID) []CPUID {
	c := l.Core(cpu)
	s := make([]CPUID, l.ThreadsPerPackage)
	for t := 0; t < l.ThreadsPerPackage; t++ {
		s[t] = l.CPUOfCore(c, t)
	}
	return s
}

// PackageCPUs returns every logical CPU on package p, cores-major.
func (l Layout) PackageCPUs(p int) []CPUID {
	out := make([]CPUID, 0, l.Cores()*l.ThreadsPerPackage)
	for c := p * l.Cores(); c < (p+1)*l.Cores(); c++ {
		for t := 0; t < l.ThreadsPerPackage; t++ {
			out = append(out, l.CPUOfCore(c, t))
		}
	}
	return out
}

// SameNode reports whether two logical CPUs share a NUMA node.
func (l Layout) SameNode(a, b CPUID) bool { return l.Node(a) == l.Node(b) }

// SamePackage reports whether two logical CPUs share a physical package.
func (l Layout) SamePackage(a, b CPUID) bool { return l.Package(a) == l.Package(b) }

// SameCore reports whether two logical CPUs share a physical core.
func (l Layout) SameCore(a, b CPUID) bool { return l.Core(a) == l.Core(b) }

// DomainFlags carry per-domain scheduling hints, mirroring Linux's
// SD_* flags.
type DomainFlags uint32

const (
	// FlagShareCPUPower marks a domain whose groups are SMT siblings
	// sharing the functional units of one core. The paper's policy
	// skips the energy-balancing step in such domains (§4.7) and never
	// migrates a hot task within one (Fig. 5 discussion), because
	// moving work between siblings cannot move heat.
	FlagShareCPUPower DomainFlags = 1 << iota
	// FlagCrossNode marks the top-level domain whose groups are NUMA
	// nodes; balancing here breaks node affinity and is the costliest
	// (§4.1).
	FlagCrossNode
	// FlagSameChip marks the CMP ("mc") level whose groups are the
	// cores of one package. Energy balancing runs here — different
	// cores of a chip can have different temperatures (§7) — but the
	// heat stays within one heat sink, so it is the cheapest level at
	// which moving tasks moves heat.
	FlagSameChip
)

// Domain is one level of the scheduler-domain hierarchy: a span of CPUs
// partitioned into groups. Balancing within a domain moves tasks between
// its groups; imbalances are resolved in the lowest domain possible.
type Domain struct {
	// Name identifies the level ("smt", "mc", "node", "top").
	Name string
	// Level is the height in the hierarchy, 0 being the lowest.
	Level int
	// Flags carry scheduling hints for this domain.
	Flags DomainFlags
	// Span lists every CPU covered by the domain.
	Span []CPUID
	// Groups partitions Span. Each group is the span of one child
	// domain (or a single CPU at the lowest level).
	Groups [][]CPUID
	// Parent is the next-higher domain containing this one, nil at the
	// top.
	Parent *Domain
	// Cores lists the distinct physical cores of Span in first-
	// encounter order, the order the §4.5 coolest-core scan breaks
	// ties in.
	Cores []int32
	// groupOf maps CPU → group index (-1 outside the span). Built at
	// construction for wide domains, where the nested GroupOf scan
	// would cost O(span) on every balance pass; narrow domains keep
	// the scan.
	groupOf []int32
}

// Contains reports whether the domain's span includes cpu.
func (d *Domain) Contains(cpu CPUID) bool {
	for _, c := range d.Span {
		if c == cpu {
			return true
		}
	}
	return false
}

// GroupOf returns the index of the group containing cpu, or -1.
func (d *Domain) GroupOf(cpu CPUID) int {
	if d.groupOf != nil {
		return int(d.groupOf[int(cpu)])
	}
	for i, g := range d.Groups {
		for _, c := range g {
			if c == cpu {
				return i
			}
		}
	}
	return -1
}

// index builds the domain's core list and, for spans wide enough that
// the linear GroupOf scan shows up in balance passes, its O(1) group
// lookup. It runs once per domain; seen is an all-false per-core
// scratch buffer, returned all-false.
func (d *Domain) index(coreOf []int32, seen []bool) {
	if d.Cores != nil {
		return
	}
	for _, c := range d.Span {
		if core := coreOf[c]; !seen[core] {
			seen[core] = true
			d.Cores = append(d.Cores, core)
		}
	}
	for _, core := range d.Cores {
		seen[core] = false
	}
	if len(d.Span) < 32 {
		return
	}
	d.groupOf = make([]int32, len(coreOf))
	for i := range d.groupOf {
		d.groupOf[i] = -1
	}
	for i, g := range d.Groups {
		for _, c := range g {
			d.groupOf[int(c)] = int32(i)
		}
	}
}

// Topology combines a Layout with its scheduler-domain hierarchy and
// the Layout's CPU maps flattened into tables. Layout derives each map
// through integer division chains, which the per-step loops, the §4.5
// hot checks and §4.6 placement resolve too often to recompute. The
// tables are built once by New and must not be modified.
type Topology struct {
	Layout Layout
	// CoreOf, PkgOf and NodeOf map a logical CPU to its physical core,
	// package and NUMA node (Layout.Core, Package, Node).
	CoreOf, PkgOf, NodeOf []int32
	// CoreCPUs[core·threads+t] is thread t of the core
	// (Layout.CPUOfCore), so a core's CPUs, and a package's, are one
	// contiguous slice.
	CoreCPUs []int32
	// domains[cpu] is the bottom-up chain of domains containing cpu.
	domains [][]*Domain
}

// CPUsOfCore returns the logical CPUs of a physical core in thread
// order, as a view of CoreCPUs.
func (t *Topology) CPUsOfCore(core int) []int32 {
	n := t.Layout.ThreadsPerPackage
	return t.CoreCPUs[core*n : (core+1)*n]
}

// New builds the scheduler-domain hierarchy for a layout, mirroring
// Linux's build for an SMT+CMP+NUMA machine (Fig. 1 plus the §7 CMP
// layer):
//
//   - an SMT level per core (when ThreadsPerPackage > 1), groups =
//     individual logical CPUs, flagged FlagShareCPUPower;
//   - an "mc" level per package (when CoresPerPackage > 1), groups =
//     cores, flagged FlagSameChip;
//   - a node level per NUMA node, groups = packages;
//   - a top level spanning the machine, groups = nodes (when
//     Nodes > 1), flagged FlagCrossNode.
//
// Like Linux, levels whose domains would contain a single group are
// degenerated away.
func New(l Layout) (*Topology, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	n := l.NumLogical()
	t := &Topology{
		Layout:   l,
		CoreOf:   make([]int32, n),
		PkgOf:    make([]int32, n),
		NodeOf:   make([]int32, n),
		CoreCPUs: make([]int32, n),
		domains:  make([][]*Domain, n),
	}
	for c := 0; c < n; c++ {
		cpu := CPUID(c)
		core := l.Core(cpu)
		t.CoreOf[c] = int32(core)
		t.PkgOf[c] = int32(l.Package(cpu))
		t.NodeOf[c] = int32(l.Node(cpu))
		t.CoreCPUs[core*l.ThreadsPerPackage+l.Thread(cpu)] = int32(c)
	}

	level := 0

	// SMT level: one domain per core.
	var smtDomains []*Domain // indexed by core
	if l.ThreadsPerPackage > 1 {
		smtDomains = make([]*Domain, l.NumCores())
		for c := 0; c < l.NumCores(); c++ {
			span := l.Siblings(l.CPUOfCore(c, 0))
			groups := make([][]CPUID, len(span))
			for i, cc := range span {
				groups[i] = []CPUID{cc}
			}
			smtDomains[c] = &Domain{
				Name:   "smt",
				Level:  level,
				Flags:  FlagShareCPUPower,
				Span:   span,
				Groups: groups,
			}
		}
		level++
	}

	// MC level: one domain per package, groups = cores (§7 CMP layer).
	var mcDomains []*Domain // indexed by package
	if l.Cores() > 1 {
		mcDomains = make([]*Domain, l.NumPackages())
		for p := 0; p < l.NumPackages(); p++ {
			var span []CPUID
			var groups [][]CPUID
			for c := p * l.Cores(); c < (p+1)*l.Cores(); c++ {
				g := l.Siblings(l.CPUOfCore(c, 0))
				groups = append(groups, g)
				span = append(span, g...)
			}
			mcDomains[p] = &Domain{Name: "mc", Level: level, Flags: FlagSameChip, Span: span, Groups: groups}
		}
		if smtDomains != nil {
			for c, d := range smtDomains {
				d.Parent = mcDomains[c/l.Cores()]
			}
		}
		level++
	}

	// Node level: one domain per NUMA node; groups are packages.
	// Degenerate when each node holds a single package and a lower
	// level already covers it (or the machine is a uniprocessor).
	var nodeDomains []*Domain
	needNode := l.PackagesPerNode > 1 ||
		(smtDomains == nil && mcDomains == nil && l.NumPackages() == 1)
	if needNode {
		nodeDomains = make([]*Domain, l.Nodes)
		for n := 0; n < l.Nodes; n++ {
			var span []CPUID
			var groups [][]CPUID
			for pp := 0; pp < l.PackagesPerNode; pp++ {
				p := n*l.PackagesPerNode + pp
				g := l.PackageCPUs(p)
				groups = append(groups, g)
				span = append(span, g...)
			}
			nodeDomains[n] = &Domain{Name: "node", Level: level, Span: span, Groups: groups}
		}
		switch {
		case mcDomains != nil:
			for p, d := range mcDomains {
				d.Parent = nodeDomains[p/l.PackagesPerNode]
			}
		case smtDomains != nil:
			for c, d := range smtDomains {
				p := c / l.Cores()
				d.Parent = nodeDomains[p/l.PackagesPerNode]
			}
		}
		level++
	}

	// Top level: spans the machine; groups are nodes.
	var top *Domain
	if l.Nodes > 1 {
		nodeSpan := func(n int) []CPUID {
			var span []CPUID
			for pp := 0; pp < l.PackagesPerNode; pp++ {
				span = append(span, l.PackageCPUs(n*l.PackagesPerNode+pp)...)
			}
			return span
		}
		var span []CPUID
		var groups [][]CPUID
		for n := 0; n < l.Nodes; n++ {
			g := nodeSpan(n)
			groups = append(groups, g)
			span = append(span, g...)
		}
		top = &Domain{Name: "top", Level: level, Flags: FlagCrossNode, Span: span, Groups: groups}
		switch {
		case nodeDomains != nil:
			for _, d := range nodeDomains {
				d.Parent = top
			}
		case mcDomains != nil:
			for _, d := range mcDomains {
				d.Parent = top
			}
		case smtDomains != nil:
			for _, d := range smtDomains {
				d.Parent = top
			}
		}
	}

	seen := make([]bool, l.NumCores())
	for c := 0; c < l.NumLogical(); c++ {
		cpu := CPUID(c)
		var chain []*Domain
		if smtDomains != nil {
			chain = append(chain, smtDomains[l.Core(cpu)])
		}
		if mcDomains != nil {
			chain = append(chain, mcDomains[l.Package(cpu)])
		}
		if nodeDomains != nil {
			chain = append(chain, nodeDomains[l.Node(cpu)])
		}
		if top != nil {
			chain = append(chain, top)
		}
		t.domains[c] = chain
		for _, d := range chain {
			d.index(t.CoreOf, seen)
		}
	}
	return t, nil
}

// MustNew is New but panics on error; for use with known-good layouts.
func MustNew(l Layout) *Topology {
	t, err := New(l)
	if err != nil {
		panic(err)
	}
	return t
}

// DomainsFor returns the bottom-up chain of scheduler domains containing
// cpu. The returned slice is shared; callers must not modify it.
func (t *Topology) DomainsFor(cpu CPUID) []*Domain {
	return t.domains[int(cpu)]
}

// AllCPUs returns the IDs of every logical CPU, in order.
func (t *Topology) AllCPUs() []CPUID {
	all := make([]CPUID, t.Layout.NumLogical())
	for i := range all {
		all[i] = CPUID(i)
	}
	return all
}
