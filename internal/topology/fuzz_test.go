package topology

import "testing"

// FuzzTopologyNew feeds arbitrary layouts to New. New must never panic,
// must fail exactly when Layout.Validate does, and on success its flat
// tables must agree with the Layout methods they cache: CoreOf, PkgOf
// and NodeOf with Core, Package and Node; CoreCPUs inverting
// (CoreOf, Thread); and every domain's Cores listing its span's
// distinct cores in first-encounter order.
func FuzzTopologyNew(f *testing.F) {
	for _, l := range []Layout{
		XSeries445(), XSeries445NoSMT(), CMP2x2(),
		Server64(), Server256(), Server1024(),
		{Nodes: 1, PackagesPerNode: 1, CoresPerPackage: 1, ThreadsPerPackage: 1},
		{},
		{Nodes: -1, PackagesPerNode: 2, CoresPerPackage: 2, ThreadsPerPackage: 2},
		{Nodes: 2, PackagesPerNode: 2, CoresPerPackage: -3, ThreadsPerPackage: 2},
		{Nodes: 2, PackagesPerNode: 0, CoresPerPackage: 1, ThreadsPerPackage: 1},
		{Nodes: 1 << 32, PackagesPerNode: 1 << 31, CoresPerPackage: 1, ThreadsPerPackage: 1},
		{Nodes: 1 << 62, PackagesPerNode: 1 << 62, CoresPerPackage: 1 << 62, ThreadsPerPackage: 1 << 62},
		{Nodes: 1, PackagesPerNode: MaxLogical + 1, CoresPerPackage: 1, ThreadsPerPackage: 1},
	} {
		f.Add(l.Nodes, l.PackagesPerNode, l.CoresPerPackage, l.ThreadsPerPackage)
	}
	f.Fuzz(func(t *testing.T, nodes, pkgs, cores, threads int) {
		l := Layout{Nodes: nodes, PackagesPerNode: pkgs, CoresPerPackage: cores, ThreadsPerPackage: threads}
		topo, err := New(l)
		if verr := l.Validate(); (err != nil) != (verr != nil) {
			t.Fatalf("%+v: New error %v, Validate error %v", l, err, verr)
		}
		if err != nil {
			return
		}
		n := l.NumLogical()
		if len(topo.CoreOf) != n || len(topo.PkgOf) != n || len(topo.NodeOf) != n || len(topo.CoreCPUs) != n {
			t.Fatalf("%+v: table lengths %d/%d/%d/%d, want %d",
				l, len(topo.CoreOf), len(topo.PkgOf), len(topo.NodeOf), len(topo.CoreCPUs), n)
		}
		domains := map[*Domain]bool{}
		for c := 0; c < n; c++ {
			cpu := CPUID(c)
			if int(topo.CoreOf[c]) != l.Core(cpu) || int(topo.PkgOf[c]) != l.Package(cpu) || int(topo.NodeOf[c]) != l.Node(cpu) {
				t.Fatalf("%+v: CPU %d maps to core/pkg/node %d/%d/%d, want %d/%d/%d", l, c,
					topo.CoreOf[c], topo.PkgOf[c], topo.NodeOf[c], l.Core(cpu), l.Package(cpu), l.Node(cpu))
			}
			if got := topo.CoreCPUs[l.Core(cpu)*l.ThreadsPerPackage+l.Thread(cpu)]; int(got) != c {
				t.Fatalf("%+v: CoreCPUs[core %d, thread %d] = %d, want %d", l, l.Core(cpu), l.Thread(cpu), got, c)
			}
			for _, d := range topo.DomainsFor(cpu) {
				domains[d] = true
			}
		}
		for d := range domains {
			var want []int32
			seen := map[int]bool{}
			for _, c := range d.Span {
				if core := l.Core(c); !seen[core] {
					seen[core] = true
					want = append(want, int32(core))
				}
			}
			if len(d.Cores) != len(want) {
				t.Fatalf("%+v: %s domain Cores = %v, want %v", l, d.Name, d.Cores, want)
			}
			for i := range want {
				if d.Cores[i] != want[i] {
					t.Fatalf("%+v: %s domain Cores = %v, want %v", l, d.Name, d.Cores, want)
				}
			}
		}
	})
}
