package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"energysched/internal/experiments"
	"energysched/internal/farm"
)

// Cancelling serve's context drains the daemon: a sweep that is
// already streaming runs to its last row, and only then does serve
// return, with nil. The handler is held open after its last row until
// the test has seen that serve waits for it, so the sweep is in flight
// when the drain begins however fast it runs.
func TestServeDrainsInFlightSweep(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	farmH := farm.NewServer(experiments.RunConfig{Jobs: 1}, 0, nil).Handler()
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		farmH.ServeHTTP(w, r)
		<-release
	})
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, h) }()

	const seeds = 2
	req := `{"name":"large/64cpu/saturated","warmup_ms":100,"measure_ms":2000,"seeds":[1,2]}`
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/sweep", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: HTTP %d", resp.StatusCode)
	}
	body := bufio.NewReader(resp.Body)
	if _, err := body.ReadString('\n'); err != nil {
		t.Fatalf("sweep header: %v", err)
	}
	// The header is out and the handler is running: drain now.
	cancel()
	select {
	case err := <-served:
		t.Fatalf("serve returned (%v) before the in-flight sweep finished", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	rest, err := io.ReadAll(body)
	if err != nil {
		t.Fatalf("sweep body cut short: %v", err)
	}
	rows := strings.Split(strings.TrimSuffix(string(rest), "\n"), "\n")
	if len(rows) != seeds {
		t.Fatalf("got %d rows after the drain began, want %d:\n%s", len(rows), seeds, rest)
	}
	for _, row := range rows {
		var r struct {
			Seed  uint64 `json:"seed"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(row), &r); err != nil || r.Error != "" || r.Seed == 0 {
			t.Fatalf("bad row %q (%v)", row, err)
		}
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not return after the drain")
	}
}
