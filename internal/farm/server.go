package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"energysched/internal/experiments"
	"energysched/internal/machine"
	"energysched/internal/scenario"
)

// maxRequestBytes bounds a sweep request body (inline specs are small;
// seed lists dominate).
const maxRequestBytes = 16 << 20

// Server executes sweep requests, either behind HTTP (Handler) or
// in-process (Direct). Both paths share the image cache and produce
// byte-identical NDJSON.
type Server struct {
	// RC supplies the worker pool.
	RC experiments.RunConfig

	cache *imageCache
	logf  func(format string, args ...any)
}

// NewServer builds a server with an image cache of at most cacheBytes
// (≤ 0 selects the 256 MiB default). logf, when non-nil, receives one
// line per request.
func NewServer(rc experiments.RunConfig, cacheBytes int64, logf func(format string, args ...any)) *Server {
	if cacheBytes <= 0 {
		cacheBytes = 256 << 20
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{RC: rc, cache: newImageCache(cacheBytes), logf: logf}
}

// Handler returns the daemon's HTTP mux:
//
//	POST /v1/sweep     — run a SweepRequest, stream NDJSON rows
//	GET  /v1/scenarios — list catalog scenario names (JSON array)
//	GET  /v1/healthz   — liveness ("ok")
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/scenarios", s.handleScenarios)
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ScenarioNames())
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxRequestBytes {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	req, err := ParseRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := req.resolve()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	image, hit, err := s.warmImage(spec, req.WarmupMS)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	cacheState := "miss"
	if hit {
		cacheState = "hit"
	}
	entries, bytes_, hits, misses := s.cache.stats()
	s.logf("sweep %s warmup=%dms measure=%dms seeds=%d cache=%s (cache: %d images, %d bytes, %d hits, %d misses)",
		spec.Hash()[:12], req.WarmupMS, req.MeasureMS, len(req.Seeds), cacheState, entries, bytes_, hits, misses)

	w.Header().Set("Content-Type", "application/x-ndjson")
	// Cache state lives in a header, not the body: direct and daemon
	// bodies stay byte-identical.
	w.Header().Set("X-Esfarmd-Cache", cacheState)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	if err := s.stream(r.Context(), w, flush, spec, image, req); err != nil {
		// The header already went out; the error line is the trailer.
		s.logf("sweep %s failed: %v", spec.Hash()[:12], err)
	}
}

// ParseRequest decodes a sweep request, rejecting unknown fields so
// schema typos fail loudly, and anything after the request object.
func ParseRequest(data []byte) (SweepRequest, error) {
	var req SweepRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("farm: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, fmt.Errorf("farm: trailing data after the request object")
	}
	return req, nil
}

// warmImage fetches the request's warm checkpoint image from the
// cache, warming the scenario on a miss.
func (s *Server) warmImage(spec scenario.Spec, warmupMS int64) ([]byte, bool, error) {
	return s.cache.get(cacheKey(spec, warmupMS), func() ([]byte, error) {
		return experiments.WarmImage(spec, warmupMS)
	})
}

// Direct executes a sweep request in-process and writes the same
// NDJSON stream the daemon would. The CI smoke test byte-diffs this
// against a round trip through the HTTP path.
func (s *Server) Direct(w io.Writer, req SweepRequest) error {
	spec, err := req.resolve()
	if err != nil {
		return err
	}
	image, _, err := s.warmImage(spec, req.WarmupMS)
	if err != nil {
		return err
	}
	return s.stream(context.Background(), w, func() {}, spec, image, req)
}

// stream restores the warm image once and writes the header plus one
// row per seed, in seed order, each row committed as soon as it and
// all its predecessors are done. Worker panics surface as an error
// trailer after the rows that did complete. Once ctx is done (the
// client hung up) or a row write fails, no further seed starts: the
// seeds in flight finish, and stream returns the cause.
func (s *Server) stream(ctx context.Context, w io.Writer, flush func(), spec scenario.Spec, image []byte, req SweepRequest) error {
	template, err := machine.Restore(image, nil)
	if err != nil {
		return writeError(w, err)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(Header{
		Version:      RequestVersion,
		ScenarioHash: spec.Hash(),
		Engine:       machine.EngineAsync.String(),
		WarmupMS:     req.WarmupMS,
		MeasureMS:    req.MeasureMS,
		Seeds:        len(req.Seeds),
	}); err != nil {
		return err
	}
	flush()

	results := make([]chan experiments.SeedRow, len(req.Seeds))
	for i := range results {
		results[i] = make(chan experiments.SeedRow, 1)
	}
	ctx, abandon := context.WithCancel(ctx)
	defer abandon()
	poolErr := make(chan error, 1)
	go func() {
		err := s.RC.ForEach(len(req.Seeds), func(i int) {
			if ctx.Err() != nil {
				return // abandoned: its slot closes empty
			}
			// Branch only reads the template, so concurrent branches
			// off the one restored machine are safe.
			b, err := template.Branch(nil)
			if err != nil {
				panic(fmt.Sprintf("branch for seed %d: %v", req.Seeds[i], err))
			}
			results[i] <- experiments.MeasureSeed(b, req.Seeds[i], req.MeasureMS)
		})
		poolErr <- err
		// Close every channel so a panicked slot cannot stall the
		// committer: its receive sees the close instead of a row.
		for _, ch := range results {
			close(ch)
		}
	}()
	written := 0
	for i := range req.Seeds {
		row, ok := <-results[i]
		if !ok {
			break
		}
		if err := enc.Encode(row); err != nil {
			// Client went away: start no further seed, and drain the
			// pool before returning.
			abandon()
			<-poolErr
			return err
		}
		flush()
		written++
	}
	if err := <-poolErr; err != nil {
		return writeError(w, err)
	}
	if written < len(req.Seeds) {
		return ctx.Err()
	}
	return nil
}

// writeError emits the NDJSON error trailer and returns err.
func writeError(w io.Writer, err error) error {
	json.NewEncoder(w).Encode(ErrorLine{Error: err.Error()})
	return err
}
