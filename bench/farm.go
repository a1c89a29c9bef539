package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"energysched/internal/experiments"
	"energysched/internal/farm"
)

// farmJobs is the farm's worker pool: one busy goroutine per core of a
// 2-core host.
const farmJobs = 2

// farmServer is an in-process farm behind a loopback HTTP server, and
// the one keep-alive client connection that drives it.
type farmServer struct {
	srv    *farm.Server
	hs     *http.Server
	served chan struct{}
	url    string
	tr     *http.Transport
	client *http.Client
}

// startFarm starts a farm server on an ephemeral loopback port.
func startFarm() (*farmServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := farm.NewServer(experiments.RunConfig{Jobs: farmJobs}, 0, nil)
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	f := &farmServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		tr:     tr,
		client: &http.Client{Transport: tr},
	}
	go func() {
		defer close(f.served)
		f.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return f, nil
}

// stop closes the connection and the server and waits for it to exit.
func (f *farmServer) stop() {
	f.tr.CloseIdleConnections()
	f.hs.Close()
	<-f.served
}

// health fetches /v1/healthz.
func (f *farmServer) health() error {
	resp, err := f.client.Get(f.url + "/v1/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		return fmt.Errorf("healthz: %s %q", resp.Status, body)
	}
	return nil
}

// farmSetup is one set-up sample in seconds: start a server and get its
// first /v1/healthz answer on a fresh connection.
func farmSetup() (float64, error) {
	t := time.Now()
	f, err := startFarm()
	if err != nil {
		return 0, err
	}
	err = f.health()
	s := msSince(t) / 1000
	f.stop()
	return s, err
}

// sweepReply is one sweep response as the client saw it.
type sweepReply struct {
	body  []byte
	cache string  // X-Esfarmd-Cache
	ttfr  float64 // ms from sending the request to reading its first row
	total float64 // ms from sending the request to the end of the body
}

// sweep POSTs a request and reads the NDJSON reply line by line.
func (f *farmServer) sweep(req farm.SweepRequest) (sweepReply, error) {
	var rep sweepReply
	data, err := json.Marshal(req)
	if err != nil {
		return rep, err
	}
	t := time.Now()
	resp, err := f.client.Post(f.url+"/v1/sweep", "application/json", bytes.NewReader(data))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return rep, fmt.Errorf("sweep: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	rep.cache = resp.Header.Get("X-Esfarmd-Cache")
	br := bufio.NewReader(resp.Body)
	var body bytes.Buffer
	for lines := 0; ; lines++ {
		line, err := br.ReadBytes('\n')
		body.Write(line)
		if lines == 1 && len(line) > 0 {
			rep.ttfr = msSince(t) // line 0 is the header, line 1 the first row
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return rep, err
		}
	}
	rep.total = msSince(t)
	rep.body = body.Bytes()
	return rep, nil
}

// checkReply checks a sweep reply against its request: the expected
// cache state and a well-formed body.
func checkReply(w *workload, rep sweepReply, req farm.SweepRequest, cache string) error {
	if rep.cache != cache {
		return fmt.Errorf("X-Esfarmd-Cache %q, want %q", rep.cache, cache)
	}
	return w.checkBody(req, rep.body)
}

// checkDirect replays a request through Server.Direct: the in-process
// body must equal the one that came over HTTP.
func (f *farmServer) checkDirect(req farm.SweepRequest, body []byte) error {
	var direct bytes.Buffer
	if err := f.srv.Direct(&direct, req); err != nil {
		return err
	}
	if !bytes.Equal(direct.Bytes(), body) {
		return errors.New("Server.Direct body differs from the HTTP body")
	}
	return nil
}

// checkSweepBody checks an NDJSON sweep body: the expected header, then
// one row per seed in seed order, and nothing else — an error trailer or
// a missing, extra or reordered row fails.
func checkSweepBody(body []byte, want farm.Header, seeds []uint64) error {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != 1+len(seeds) {
		return fmt.Errorf("%d lines, want a header and %d rows", len(lines), len(seeds))
	}
	var h farm.Header
	if err := strictUnmarshal(lines[0], &h); err != nil {
		return fmt.Errorf("header: %w", err)
	}
	if h != want {
		return fmt.Errorf("header %+v, want %+v", h, want)
	}
	for i, line := range lines[1:] {
		var row experiments.SeedRow
		if err := strictUnmarshal(line, &row); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if row.Seed != seeds[i] {
			return fmt.Errorf("row %d has seed %d, want %d", i, row.Seed, seeds[i])
		}
	}
	return nil
}

// strictUnmarshal decodes one JSON object and rejects unknown fields, so
// an error trailer never passes for a row.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// firstRowWriter collects a Server.Direct body and the time its first
// row (the second line) was written.
type firstRowWriter struct {
	start time.Time
	buf   bytes.Buffer
	lines int
	ttfr  float64
}

func (w *firstRowWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	if w.lines < 2 {
		w.lines += bytes.Count(p, []byte("\n"))
		if w.lines >= 2 {
			w.ttfr = msSince(w.start)
		}
	}
	return len(p), nil
}
