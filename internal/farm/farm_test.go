package farm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"energysched/internal/experiments"
	"energysched/internal/scenario"
)

func testRequest() SweepRequest {
	return SweepRequest{
		Version:   RequestVersion,
		Name:      "engines/steady-state",
		WarmupMS:  2000,
		MeasureMS: 2000,
		Seeds:     []uint64{3, 1, 4, 1, 5},
	}
}

// TestDaemonMatchesDirect is the service's equivalence contract: the
// NDJSON body of an HTTP sweep is byte-identical to the daemon-less
// direct execution of the same request, and a repeated sweep is served
// from the image cache without changing a byte.
func TestDaemonMatchesDirect(t *testing.T) {
	srv := NewServer(experiments.RunConfig{}, 0, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

	health, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz -> %d, want 200", health.StatusCode)
	}

	var viaHTTP bytes.Buffer
	if err := c.Sweep(testRequest(), &viaHTTP); err != nil {
		t.Fatal(err)
	}

	var direct bytes.Buffer
	if err := NewServer(experiments.RunConfig{}, 0, nil).Direct(&direct, testRequest()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaHTTP.Bytes(), direct.Bytes()) {
		t.Errorf("daemon and direct streams differ:\n-- daemon --\n%s\n-- direct --\n%s", viaHTTP.String(), direct.String())
	}

	// Second submission: cache hit, identical body.
	body, _ := json.Marshal(testRequest())
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Esfarmd-Cache"); got != "hit" {
		t.Errorf("second sweep X-Esfarmd-Cache = %q, want \"hit\"", got)
	}
	var again bytes.Buffer
	if _, err := again.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaHTTP.Bytes(), again.Bytes()) {
		t.Error("cached sweep body differs from the first")
	}

	// The stream parses back: header, then rows in request-seed order.
	lines := strings.Split(strings.TrimSpace(viaHTTP.String()), "\n")
	if len(lines) != 1+len(testRequest().Seeds) {
		t.Fatalf("stream has %d lines, want %d", len(lines), 1+len(testRequest().Seeds))
	}
	// Every sweep runs on the default engine.
	if !strings.Contains(lines[0], `"engine":"async"`) {
		t.Errorf("header %s does not name the default async engine", lines[0])
	}
	var hdr Header
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Version != RequestVersion || hdr.Engine != "async" || hdr.Seeds != 5 {
		t.Errorf("bad header: %+v", hdr)
	}
	for i, line := range lines[1:] {
		var row experiments.SeedRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if row.Seed != testRequest().Seeds[i] {
			t.Errorf("row %d has seed %d, want %d", i, row.Seed, testRequest().Seeds[i])
		}
	}
}

// TestSweepMatchesExperiments pins the warm-branch plan to the
// rebuild-per-seed reference: branching the warmed template per seed
// streams exactly the rows RunConfig.SeedSweepRebuild returns, in
// request-seed order, byte-identically at every worker count — and
// different seeds really diverge (a degenerate Reseed would not).
func TestSweepMatchesExperiments(t *testing.T) {
	req := testRequest()
	req.MeasureMS = 3000
	req.Seeds = []uint64{1, 2, 3, 5, 8, 13}
	direct := func(jobs int) []byte {
		var out bytes.Buffer
		if err := NewServer(experiments.RunConfig{Jobs: jobs}, 0, nil).Direct(&out, req); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	seq := direct(1)
	if par := direct(8); !bytes.Equal(seq, par) {
		t.Errorf("sweep stream differs between Jobs 1 and Jobs 8:\n-- 1 --\n%s\n-- 8 --\n%s", seq, par)
	}

	spec, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunConfig{}.SeedSweepRebuild(spec, req.WarmupMS, req.MeasureMS, req.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(seq)), "\n")
	if len(lines) != 1+len(want) {
		t.Fatalf("stream has %d lines, want %d", len(lines), 1+len(want))
	}
	rows := make([]experiments.SeedRow, len(want))
	for i, w := range want {
		if err := json.Unmarshal([]byte(lines[1+i]), &rows[i]); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows[i], w) {
			t.Errorf("row %d: stream %+v != rebuild %+v", i, rows[i], w)
		}
	}
	if rows[0].WorkDoneMS == rows[1].WorkDoneMS && rows[0].TrueEnergyJ == rows[1].TrueEnergyJ &&
		rows[0].Completions == rows[1].Completions {
		t.Errorf("seeds 1 and 2 produced identical rows: %+v", rows[0])
	}
}

// TestRequestValidation exercises the schema's failure modes.
func TestRequestValidation(t *testing.T) {
	srv := NewServer(experiments.RunConfig{}, 0, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	bad := []string{
		`{`,             // malformed JSON
		`{"seeds":[1]}`, // neither name nor scenario
		`{"name":"no-such","seeds":[1],"measure_ms":1}`,                  // unknown scenario
		`{"name":"mixed","seeds":[1],"measure_ms":1,"version":99}`,       // future version
		`{"name":"mixed","seeds":[],"measure_ms":1}`,                     // empty seeds
		`{"name":"mixed","seeds":[1],"measure_ms":0}`,                    // no window
		`{"name":"mixed","seeds":[1],"measure_ms":1,"bogus_field":true}`, // unknown field
		`{"name":"mixed","seeds":[1],"measure_ms":1} {"junk":true}`,      // trailing data
		// A layout whose logical CPU count overflows int.
		`{"scenario":{"topology":{"nodes":4294967296,"packages_per_node":2147483648,"cores_per_package":1,"threads_per_core":1},` +
			`"workload":[{"program":"bitcnts","count":1}]},"seeds":[1],"measure_ms":1}`,
		// A layout past topology.MaxLogical.
		`{"scenario":{"topology":{"nodes":1,"packages_per_node":4097,"cores_per_package":1,"threads_per_core":1},` +
			`"workload":[{"program":"bitcnts","count":1}]},"seeds":[1],"measure_ms":1}`,
		// A workload past scenario.MaxTasks.
		`{"scenario":{"topology":{"nodes":1,"packages_per_node":1,"cores_per_package":1,"threads_per_core":1},` +
			`"workload":[{"program":"bitcnts","count":65536},{"program":"sshd","count":1}]},"seeds":[1],"measure_ms":1}`,
		// Heat-sink time constants whose 1 ms thermal-power weight
		// rounds to 0 (R·C overflowing, and a finite 1e14 s).
		`{"scenario":{"topology":{"nodes":1,"packages_per_node":1,"cores_per_package":1,"threads_per_core":1},` +
			`"packages":[{"r":1e300,"c":1e300,"ambient_c":25}],"workload":[{"program":"bitcnts","count":1}]},"seeds":[1],"measure_ms":1}`,
		`{"scenario":{"topology":{"nodes":1,"packages_per_node":1,"cores_per_package":1,"threads_per_core":1},` +
			`"packages":[{"r":1e7,"c":1e7,"ambient_c":25}],"workload":[{"program":"bitcnts","count":1}]},"seeds":[1],"measure_ms":1}`,
	}
	for _, body := range bad {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("POST %s -> %d, want 400", body, code)
		}
	}
	if code := post(`{"name":"engines/steady-state","seeds":[1],"warmup_ms":100,"measure_ms":100}`); code != http.StatusOK {
		t.Errorf("valid request -> %d, want 200", code)
	}

	// The schema has no engine field, so even a valid engine name is
	// rejected up front: a 400 with a plain-text error naming the
	// field, never an NDJSON stream.
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"name":"mixed","seeds":[1],"measure_ms":1,"engine":"async"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("engine request -> %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); strings.Contains(ct, "ndjson") {
		t.Errorf("engine request answered with Content-Type %q", ct)
	}
	if !strings.Contains(string(body), `unknown field "engine"`) {
		t.Errorf("engine request body %q, want the unknown-field error", body)
	}
}

// TestRequestCostBudget: a request is priced as logical CPUs ×
// (warm-up + seeds × measure) and refused past MaxRequestCostMS before
// anything builds, however large its windows, without the price or the
// inline run length overflowing. resolve is called directly, so a
// request that slipped through fails here instead of running.
func TestRequestCostBudget(t *testing.T) {
	inline := func() *scenario.Spec {
		return &scenario.Spec{
			Topology: scenario.TopoSpec{Nodes: 1, PackagesPerNode: 2, CoresPerPackage: 1, ThreadsPerCore: 1},
			Workload: []scenario.TaskGroup{{Program: "bitcnts", Count: 2}},
		}
	}
	seeds := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(i + 1)
		}
		return out
	}
	// 8 CPUs × (1 000 + 4 × atBudget) is exactly MaxRequestCostMS.
	const atBudget = (MaxRequestCostMS/8 - 1_000) / 4
	for _, c := range []struct {
		why string
		req SweepRequest
	}{
		{"a 2^50 ms warm-up", SweepRequest{Name: "mixed", WarmupMS: 1 << 50, MeasureMS: 1000, Seeds: []uint64{1}}},
		{"a 2^50 ms window on 1024 CPUs", SweepRequest{Name: "large/1024cpu/saturated", WarmupMS: 1000, MeasureMS: 1 << 50, Seeds: []uint64{1, 2, 3}}},
		{"warm-up plus measure overflowing int64", SweepRequest{Name: "mixed",
			WarmupMS: math.MaxInt64 - 10, MeasureMS: 100, Seeds: []uint64{1}}},
		{"an inline run length overflowing int64", SweepRequest{Scenario: inline(),
			WarmupMS: math.MaxInt64 - 10, MeasureMS: 100, Seeds: []uint64{1}}},
		{"in-range windows over the budget", SweepRequest{Name: "mixed", WarmupMS: 1000, MeasureMS: 1 << 30, Seeds: seeds(2)}},
		// mixed has 8 logical CPUs: one CPU-ms per CPU over the budget.
		{"one CPU-ms per CPU over the budget", SweepRequest{Name: "mixed",
			WarmupMS: 1_001, MeasureMS: atBudget, Seeds: seeds(4)}},
	} {
		if _, err := c.req.resolve(); err == nil {
			t.Errorf("resolve accepted %s", c.why)
		}
	}
	for _, c := range []struct {
		why string
		req SweepRequest
	}{
		// The repository benchmark's farm sweeps: 8 CPUs, a 60 s
		// warm-up plus a per-miss offset, 16 seeds of 5 s.
		{"a benchmark farm sweep", SweepRequest{Name: "mixed", WarmupMS: 60_000 + 1_000, MeasureMS: 5_000, Seeds: seeds(16)}},
		{"a CI smoke sweep", SweepRequest{Name: "engines/steady-state", WarmupMS: 2_000, MeasureMS: 2_000, Seeds: seeds(8)}},
		{"exactly the budget", SweepRequest{Name: "mixed",
			WarmupMS: 1_000, MeasureMS: atBudget, Seeds: seeds(4)}},
	} {
		if _, err := c.req.resolve(); err != nil {
			t.Errorf("resolve refused %s: %v", c.why, err)
		}
	}
}

// TestInlineSpecCacheIgnoresMeasure: the warm image depends on the spec
// and the warm-up, not on the measurement window. Two inline requests
// that differ only in measure_ms share one image, so the second is a
// cache hit (resolve fills the omitted run_ms from warm-up + measure,
// which must not split the spec hash).
func TestInlineSpecCacheIgnoresMeasure(t *testing.T) {
	srv := NewServer(experiments.RunConfig{}, 0, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const spec = `{"topology":{"nodes":1,"packages_per_node":2,"cores_per_package":1,"threads_per_core":1},` +
		`"workload":[{"program":"bitcnts","count":2}]}`
	cache := func(measureMS int) string {
		body := fmt.Sprintf(`{"scenario":%s,"seeds":[1],"warmup_ms":200,"measure_ms":%d}`, spec, measureMS)
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("measure_ms %d -> %d, want 200", measureMS, resp.StatusCode)
		}
		return resp.Header.Get("X-Esfarmd-Cache")
	}
	if got := cache(100); got != "miss" {
		t.Errorf("first sweep X-Esfarmd-Cache = %q, want \"miss\"", got)
	}
	if got := cache(300); got != "hit" {
		t.Errorf("same warm-up, longer measure: X-Esfarmd-Cache = %q, want \"hit\"", got)
	}
}

// TestParseSeeds covers the CLI seed-list grammar.
func TestParseSeeds(t *testing.T) {
	got, err := ParseSeeds("1,5,10-13")
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1, 5, 10, 11, 12, 13}; !reflect.DeepEqual(got, want) {
		t.Errorf("ParseSeeds = %v, want %v", got, want)
	}
	// A range ending at MaxUint64 terminates instead of wrapping around.
	got, err = ParseSeeds("18446744073709551613-18446744073709551615")
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1<<64 - 3, 1<<64 - 2, 1<<64 - 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("ParseSeeds at MaxUint64 = %v, want %v", got, want)
	}
	for _, bad := range badSeedLists {
		if _, err := ParseSeeds(bad); err == nil {
			t.Errorf("ParseSeeds(%q) should fail", bad)
		}
	}
}

// badSeedLists are seed lists ParseSeeds must reject (TestParseSeeds,
// and seeds of FuzzParseSeeds).
var badSeedLists = []string{"", "x", "5-1", "1-",
	"0-1048576",         // one range over the limit
	"0-600000,0-600000", // ranges that only together exceed it
}

// TestParseRequestTrailingData pins that a request body is exactly one
// JSON value: a valid request followed by anything else is rejected.
func TestParseRequestTrailingData(t *testing.T) {
	if _, err := ParseRequest([]byte(validRequestBody + "\n")); err != nil {
		t.Fatalf("valid request with trailing newline: %v", err)
	}
	for _, body := range trailingDataBodies {
		if _, err := ParseRequest([]byte(body)); err == nil {
			t.Errorf("ParseRequest(%q) accepted trailing data", body)
		}
	}
}

// validRequestBody is a minimal valid sweep request, and
// trailingDataBodies follow it with more data, which ParseRequest must
// reject (TestParseRequestTrailingData, and seeds of FuzzParseRequest).
const validRequestBody = `{"name":"mixed","seeds":[1],"measure_ms":1}`

var trailingDataBodies = []string{
	validRequestBody + ` {"junk":true}`,
	validRequestBody + validRequestBody,
	validRequestBody + ` x`,
	validRequestBody + `]`,
}

// TestCacheEviction checks the LRU byte budget.
func TestCacheEviction(t *testing.T) {
	c := newImageCache(100)
	mk := func(key string, n int) []byte {
		data, _, err := c.get(key, func() ([]byte, error) { return make([]byte, n), nil })
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	mk("a", 40)
	mk("b", 40)
	if _, hit, _ := c.get("a", nil); !hit {
		t.Fatal("a should be cached")
	}
	mk("c", 40) // over budget: evicts LRU entry b
	if _, hit, _ := c.get("b", func() ([]byte, error) { return make([]byte, 40), nil }); hit {
		t.Error("b should have been evicted")
	}
	entries, size, _, _ := c.stats()
	if entries != 3 || size > 100 {
		// a, c, and the rebuilt b minus whichever eviction balanced it
		t.Logf("cache: %d entries, %d bytes", entries, size)
	}
	mk("huge", 200) // larger than the budget: pass-through, never cached
	if _, hit, _ := c.get("huge", func() ([]byte, error) { return nil, nil }); hit {
		t.Error("oversized image should not be cached")
	}
}

// BenchmarkSeedSweep times the warm-branch seed sweep against the
// rebuild-per-seed plan it replaces: rebuild pays seeds×(warmup+measure)
// of simulation, warm-branch pays the warm-up once plus seeds×measure.
// One op is one whole 8-seed sweep; warm uses a fresh server per op, so
// every op pays its warm-up (a cache miss). Sequential (Jobs=1) so the
// plans compare simulation work, not pool scheduling. The warm
// sub-benchmark reports the amortization the farm's image cache banks
// on as rebuild/warm (when the rebuild sub-benchmark ran first), e.g.
//
//	go test ./internal/farm -run '^$' -bench SeedSweep
func BenchmarkSeedSweep(b *testing.B) {
	rc := experiments.RunConfig{Jobs: 1}
	req := SweepRequest{
		Name:      "engines/steady-state",
		WarmupMS:  5_000,
		MeasureMS: 2_000,
		Seeds:     []uint64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	spec, err := req.resolve()
	if err != nil {
		b.Fatal(err)
	}

	var rebuildNs float64
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rc.SeedSweepRebuild(spec, req.WarmupMS, req.MeasureMS, req.Seeds); err != nil {
				b.Fatal(err)
			}
		}
		rebuildNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := NewServer(rc, 0, nil).Direct(io.Discard, req); err != nil {
				b.Fatal(err)
			}
		}
		if rebuildNs > 0 {
			warmNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(rebuildNs/warmNs, "rebuild/warm")
		}
	})
}

// A client that hangs up after the header abandons its sweep: the
// request's context ends, no further seed starts, and the handler
// returns after the seed in flight instead of running the rest. The
// sweep here would take about a minute to finish; the handler must
// return within seconds.
func TestSweepStopsWhenClientHangsUp(t *testing.T) {
	logs := make(chan string, 16)
	srv := NewServer(experiments.RunConfig{Jobs: 1}, 0, func(format string, args ...any) {
		select {
		case logs <- fmt.Sprintf(format, args...):
		default:
		}
	})
	returned := make(chan time.Time, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(w, r)
		if r.URL.Path == "/v1/sweep" {
			returned <- time.Now()
		}
	}))
	defer ts.Close()

	req := testRequest()
	req.MeasureMS = 100_000
	req.Seeds = make([]uint64, 8000)
	for i := range req.Seeds {
		req.Seeds[i] = uint64(i + 1)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	header, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.Contains(header, `"seeds":8000`) {
		t.Fatalf("header %q, %v", header, err)
	}
	hungUp := time.Now()
	resp.Body.Close()

	select {
	case at := <-returned:
		t.Logf("handler returned %v after the hang-up", at.Sub(hungUp))
	case <-time.After(5 * time.Second):
		t.Fatal("the sweep kept running 5 s after its client hung up")
	}
	for {
		select {
		case line := <-logs:
			if strings.Contains(line, "failed") {
				t.Logf("server log: %s", line)
				return
			}
		default:
			t.Fatal("the server did not log the abandoned sweep")
		}
	}
}
