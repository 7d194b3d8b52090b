// Command remo-serve runs the monitoring stack as a long-running
// service: it plans a synthetic (or spec-loaded) deployment, starts a
// durable Monitor session, and exposes the admission, inspection, and
// streaming API over HTTP/JSON.
//
// Usage:
//
//	remo-serve -addr 127.0.0.1:7300
//	remo-serve -nodes 60 -attrs 24 -tasks 20 -journal /var/lib/remo
//	remo-serve -spec problem.json -verify -round-every 100ms
//
// The service follows a frontend/backend split: task mutations (POST,
// PUT, DELETE under /v1/tasks) validate synchronously against the
// admission budget and return 202 with an asynchronous operation to
// poll; a planner goroutine materializes the desired task set beside
// the paced collection rounds, driving the incremental replanner. Store
// values and trigger firings stream over SSE at /v1/stream; /metrics
// exposes Prometheus-style counters; /healthz answers liveness.
//
// On SIGINT/SIGTERM the server drains: in-flight admissions are
// applied, a final checkpoint is journaled, and the process exits.
// A second signal (or an expired -drain-deadline) force-exits. The
// journal a drain leaves is for Planner.ResumeMonitor; the daemon does
// not resume, and refuses a -journal directory that already holds one.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"remo"
	"remo/internal/journal"
	"remo/internal/lifecycle"
	"remo/internal/serve"
	"remo/internal/workload"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "remo-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("remo-serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7300", "listen address (port 0 picks a free port)")
		specPath = fs.String("spec", "", "JSON problem spec (default: generate synthetically)")
		nodes    = fs.Int("nodes", 60, "synthetic: number of nodes")
		attrs    = fs.Int("attrs", 24, "synthetic: attribute pool size")
		tasks    = fs.Int("tasks", 12, "synthetic: number of seed tasks")
		seed     = fs.Int64("seed", 1, "random seed")
		verifyOn = fs.Bool("verify", false, "arm the verification harness: cross-check the plan and the live session periodically")

		journalDir = fs.String("journal", "", "journal directory for checkpoints and the WAL, empty or new (default: a fresh temp dir)")
		roundEvery = fs.Duration("round-every", 50*time.Millisecond, "collection round pacing")
		verifyEv   = fs.Int("verify-every", 32, "with -verify, cross-check the session every n rounds")
		maxBody    = fs.Int64("max-body", 1<<20, "maximum request body size in bytes")
		drainDl    = fs.Duration("drain-deadline", lifecycle.DefaultDrainDeadline, "force-exit if a signal-triggered drain outlives this (negative disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(*nodes, *attrs, *tasks, *roundEvery, *maxBody); err != nil {
		return err
	}

	dir := *journalDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "remo-serve-journal-")
		if err != nil {
			return fmt.Errorf("create journal dir: %w", err)
		}
		dir = tmp
	} else if journal.Exists(dir) {
		// StartMonitor would number a fresh, empty checkpoint after the
		// newest segment and recovery would find that one: the drained
		// session the directory holds would be superseded unread.
		return fmt.Errorf("journal directory %s already holds a session, and this daemon cannot resume one: recover it with Planner.ResumeMonitor, or start on an empty directory", dir)
	}

	planner, err := buildPlanner(*specPath, *nodes, *attrs, *tasks, *seed, *verifyOn)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		Planner: planner,
		Monitor: remo.MonitorConfig{
			Seed:    uint64(*seed),
			Journal: dir,
		},
		RoundEvery:   *roundEvery,
		MaxBodyBytes: *maxBody,
		VerifyEvery:  *verifyEv,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Drain()
		return err
	}
	fmt.Fprintf(stdout, "remo-serve listening on http://%s (journal %s)\n", ln.Addr(), dir)

	ctx, release := lifecycle.Context(ctx, lifecycle.Options{DrainDeadline: *drainDl})
	defer release()

	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		srv.Drain()
		return err
	case <-ctx.Done():
	}

	// Drain order matters: srv.Drain applies queued operations, seals the
	// final checkpoint, and disconnects stream subscribers — which lets
	// hs.Shutdown's idle-connection wait complete.
	fmt.Fprintln(stdout, "draining: applying queued operations and sealing the final checkpoint")
	srv.Drain()
	shutCtx := context.Background()
	if *drainDl > 0 {
		var cancel context.CancelFunc
		shutCtx, cancel = context.WithTimeout(shutCtx, *drainDl)
		defer cancel()
	}
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	<-errCh // hs.Serve has returned http.ErrServerClosed
	fmt.Fprintf(stdout, "drained: session journaled under %s\n", dir)
	return nil
}

// validateFlags rejects configurations that cannot serve.
func validateFlags(nodes, attrs, tasks int, roundEvery time.Duration, maxBody int64) error {
	if nodes < 1 {
		return fmt.Errorf("-nodes must be at least 1 (got %d)", nodes)
	}
	if attrs < 1 {
		return fmt.Errorf("-attrs must be at least 1 (got %d)", attrs)
	}
	if tasks < 0 {
		return fmt.Errorf("-tasks must be non-negative (got %d)", tasks)
	}
	if roundEvery <= 0 {
		return fmt.Errorf("-round-every must be positive (got %v)", roundEvery)
	}
	if maxBody < 1 {
		return fmt.Errorf("-max-body must be at least 1 byte (got %d)", maxBody)
	}
	return nil
}

// buildPlanner assembles the planning problem from a spec file or the
// synthetic generator, mirroring remo-sim's setup path.
func buildPlanner(specPath string, nodes, attrs, tasks int, seed int64, verifyOn bool) (*remo.Planner, error) {
	var opts []remo.PlannerOption
	if verifyOn {
		opts = append(opts, remo.WithVerification())
	}
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }()
		spec, err := remo.LoadSpec(f)
		if err != nil {
			return nil, err
		}
		return spec.Build(opts...)
	}
	sys, err := workload.System(workload.SystemConfig{
		Nodes:      nodes,
		Attrs:      attrs,
		CapacityLo: 150,
		CapacityHi: 400,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	planner := remo.NewPlanner(sys, opts...)
	nodesPer := nodes / 5
	if nodesPer < 2 {
		nodesPer = 2
	}
	for _, t := range workload.Tasks(sys, workload.TaskConfig{
		Count:        tasks,
		AttrsPerTask: 4,
		NodesPerTask: nodesPer,
		Seed:         seed + 1,
	}) {
		if err := planner.AddTask(t); err != nil {
			return nil, err
		}
	}
	return planner, nil
}
