// Package lifecycle centralizes process shutdown handling for the
// repo's binaries: a context cancelled on SIGINT/SIGTERM, a drain
// deadline that bounds how long graceful shutdown may take, and a
// double-signal escape hatch that force-exits immediately. Every
// binary (remo-serve, remo-sim, remo-bench) shares this
// package instead of installing its own ad-hoc signal handling.
package lifecycle

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// DefaultDrainDeadline bounds graceful shutdown when Options leaves it
// unset: a drain that has not finished this long after the first
// signal force-exits.
const DefaultDrainDeadline = 15 * time.Second

// Options configures a lifecycle context.
type Options struct {
	// Signals are the signals that trigger shutdown (default SIGINT and
	// SIGTERM).
	Signals []os.Signal
	// DrainDeadline bounds graceful shutdown: once the first signal
	// lands, the process force-exits after this long even if the drain
	// is still running (default DefaultDrainDeadline; negative disables
	// the deadline, leaving only the double-signal escape).
	DrainDeadline time.Duration
	// Log, when set, receives one-line notices about received signals
	// and forced exits (default os.Stderr; io.Discard silences).
	Log io.Writer
	// ForceExit replaces os.Exit for the force paths (tests only).
	ForceExit func(code int)

	// sigs replaces the OS signal feed (tests only).
	sigs <-chan os.Signal
	// stop detaches the OS signal feed when the context is released.
	stop func()
}

// Context returns a context cancelled on the first shutdown signal.
// The caller drains gracefully once the context is done; a second
// signal, or the drain deadline expiring, force-exits with status 1.
// The returned release function detaches the signal handler (it does
// not cancel the context on its own — use it on clean exit so a later
// signal gets the default behavior again).
func Context(parent context.Context, o Options) (context.Context, context.CancelFunc) {
	if len(o.Signals) == 0 {
		o.Signals = []os.Signal{syscall.SIGINT, syscall.SIGTERM}
	}
	if o.DrainDeadline == 0 {
		o.DrainDeadline = DefaultDrainDeadline
	}
	if o.Log == nil {
		o.Log = os.Stderr
	}
	if o.ForceExit == nil {
		o.ForceExit = os.Exit
	}
	if o.sigs == nil {
		ch := make(chan os.Signal, 2)
		signal.Notify(ch, o.Signals...)
		o.sigs = ch
		o.stop = func() { signal.Stop(ch) }
	}

	ctx, cancel := context.WithCancel(parent)
	quit := make(chan struct{})
	go watch(ctx, cancel, quit, o)

	release := func() {
		if o.stop != nil {
			o.stop()
		}
		close(quit)
		cancel()
	}
	return ctx, release
}

// watch is the signal loop: first signal cancels the context and arms
// the drain deadline; a second signal or the deadline force-exits.
// Closing quit (the release function, on clean exit) stops the loop.
func watch(ctx context.Context, cancel context.CancelFunc, quit chan struct{}, o Options) {
	select {
	case <-quit:
		return
	case <-ctx.Done():
		return
	case sig := <-o.sigs:
		fmt.Fprintf(o.Log, "received %v, draining (repeat to force exit)\n", sig)
		cancel()
	}

	var deadline <-chan time.Time
	if o.DrainDeadline > 0 {
		t := time.NewTimer(o.DrainDeadline)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case <-quit:
		return
	case sig := <-o.sigs:
		fmt.Fprintf(o.Log, "received %v again, forcing exit\n", sig)
		o.ForceExit(1)
	case <-deadline:
		fmt.Fprintf(o.Log, "drain deadline %v expired, forcing exit\n", o.DrainDeadline)
		o.ForceExit(1)
	}
}
