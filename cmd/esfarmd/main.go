// Command esfarmd is the simulation-farm service: a daemon that runs
// seed sweeps of shared scenarios on warm checkpoint branches, plus
// the matching client and a daemon-less direct mode.
//
//	esfarmd serve  -addr :7433 [-j N] [-cache-mb 256]
//	esfarmd submit -addr http://host:7433 (-scenario NAME | -spec FILE) \
//	               [-warmup MS] [-measure MS] -seeds 1-100
//	esfarmd direct (-scenario NAME | -spec FILE) [-j N] \
//	               [-warmup MS] [-measure MS] -seeds 1-100
//	esfarmd scenarios [-addr URL]
//
// submit and direct write the same NDJSON stream to stdout: a header
// object, one row per seed in seed order, and an error object only on
// failure. Every sweep runs on the default async engine. The daemon
// caches warm images by (scenario, warm-up) content, so repeated sweeps
// skip the warm-up entirely. On SIGINT or SIGTERM the daemon stops
// accepting connections and exits once in-flight sweeps have streamed
// their last row.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"energysched/internal/experiments"
	"energysched/internal/farm"
	"energysched/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("esfarmd: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serveCmd(os.Args[2:])
	case "submit":
		err = submit(os.Args[2:])
	case "direct":
		err = direct(os.Args[2:])
	case "scenarios":
		err = scenarios(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  esfarmd serve  -addr :7433 [-j N] [-cache-mb MB]
  esfarmd submit -addr URL (-scenario NAME | -spec FILE) [-warmup MS] [-measure MS] -seeds LIST
  esfarmd direct (-scenario NAME | -spec FILE) [-j N] [-warmup MS] [-measure MS] -seeds LIST
  esfarmd scenarios [-addr URL]
seed LIST is comma-separated values and inclusive ranges, e.g. 1,5,10-20`)
}

func serveCmd(args []string) error {
	fs := flag.NewFlagSet("esfarmd serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7433", "listen address")
	jobs := fs.Int("j", 0, "worker goroutines for independent runs (0 = GOMAXPROCS, 1 = sequential)")
	cacheMB := fs.Int64("cache-mb", 256, "warm-image cache budget in MiB")
	fs.Parse(args)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The first SIGINT or SIGTERM starts the drain; once it has, the
	// default handling is back, so a second one ends the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	srv := farm.NewServer(experiments.RunConfig{Jobs: *jobs}, *cacheMB<<20, log.Printf)
	log.Printf("listening on %s", ln.Addr())
	return serve(ctx, ln, srv.Handler())
}

// serve answers requests on ln until ctx is done, then drains through
// http.Server.Shutdown: the listener closes, and sweeps already
// streaming run to their last row before serve returns nil.
func serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	log.Printf("draining in-flight sweeps")
	if err := hs.Shutdown(context.Background()); err != nil {
		return err
	}
	if err := <-served; err != http.ErrServerClosed {
		return err
	}
	return nil
}

// sweepFlags registers the request-shaping flags shared by submit and
// direct, returning a builder that assembles the SweepRequest after
// parsing.
func sweepFlags(fs *flag.FlagSet) func() (farm.SweepRequest, error) {
	name := fs.String("scenario", "", "catalog scenario name (see esfarmd scenarios)")
	specFile := fs.String("spec", "", "inline scenario spec JSON file")
	warmup := fs.Int64("warmup", 10_000, "warm-up simulated once and shared by every seed (ms)")
	measure := fs.Int64("measure", 10_000, "per-seed measurement window (ms)")
	seeds := fs.String("seeds", "", "seed list, e.g. 1,5,10-20")
	return func() (farm.SweepRequest, error) {
		req := farm.SweepRequest{
			Version:   farm.RequestVersion,
			Name:      *name,
			WarmupMS:  *warmup,
			MeasureMS: *measure,
		}
		if *specFile != "" {
			s, err := scenario.LoadFile(*specFile)
			if err != nil {
				return req, err
			}
			req.Scenario = &s
		}
		var err error
		req.Seeds, err = farm.ParseSeeds(*seeds)
		return req, err
	}
}

func submit(args []string) error {
	fs := flag.NewFlagSet("esfarmd submit", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7433", "daemon address")
	build := sweepFlags(fs)
	fs.Parse(args)
	req, err := build()
	if err != nil {
		return err
	}
	c := &farm.Client{BaseURL: *addr}
	return c.Sweep(req, os.Stdout)
}

func direct(args []string) error {
	fs := flag.NewFlagSet("esfarmd direct", flag.ExitOnError)
	jobs := fs.Int("j", 0, "worker goroutines for independent runs (0 = GOMAXPROCS, 1 = sequential)")
	build := sweepFlags(fs)
	fs.Parse(args)
	req, err := build()
	if err != nil {
		return err
	}
	srv := farm.NewServer(experiments.RunConfig{Jobs: *jobs}, 0, nil)
	return srv.Direct(os.Stdout, req)
}

func scenarios(args []string) error {
	fs := flag.NewFlagSet("esfarmd scenarios", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address (empty: list the local catalog)")
	fs.Parse(args)
	names := farm.ScenarioNames()
	if *addr != "" {
		c := &farm.Client{BaseURL: *addr}
		var err error
		names, err = c.Scenarios()
		if err != nil {
			return err
		}
	}
	for _, n := range names {
		fmt.Println(n)
	}
	return nil
}
