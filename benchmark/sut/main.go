// Command sut is the benchmark's system under test: the remo service on
// a real loopback listener, configured from an options file the driver
// generates. It prints its address on the first line of standard output
// and drains on SIGTERM or SIGINT, or when its standard input closes: the
// driver holds the other end, so the SUT never outlives a driver that
// died.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"remo/benchmark/rig"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sut:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) != 2 {
		return errors.New("usage: sut <options.json>")
	}
	opts, err := rig.LoadOptions(os.Args[1])
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		stop()
	}()

	srv, err := opts.Serve()
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return err
	}
	fmt.Printf("http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		srv.Drain()
		return err
	case <-ctx.Done():
	}
	// Drain first: it seals the final checkpoint and disconnects stream
	// subscribers, which lets Shutdown's idle wait complete.
	srv.Drain()
	if err := hs.Shutdown(context.Background()); err != nil {
		return err
	}
	<-errCh
	return nil
}
