package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"xydiff/internal/diff"
	"xydiff/internal/server"
	"xydiff/internal/store"
	"xydiff/internal/vstore"
)

// env is one running system under test: a vstore directory, the
// server over it and the net/http stack on a loopback listener.
type env struct {
	st     *vstore.Store
	srv    *server.Server
	hs     *http.Server
	url    string
	tr     *tracer
	served chan error
}

// openEnv opens (or reopens) the store in dir and serves it. With a
// tracer the server is handed the tracing wrapper instead of the store.
//
// The settings are fixed for every workload: flush policy off (fsync
// cost on a shared machine is the device's noise, not the program's
// cost), the workload's version cache, one goroutine per diff as the
// daemon defaults to (the server's worker pool provides the
// parallelism), and the engine's and server's defaults otherwise.
func openEnv(dir string, w *workload, tr *tracer) (*env, error) {
	st, err := vstore.Open(dir, diff.Options{Workers: 1}, vstore.Config{Sync: store.SyncOff, CacheSize: w.cacheSize})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	var ss server.Store = st
	if tr != nil {
		ss = &tracedStore{Store: st, tr: tr}
	}
	srv := server.New(ss, server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		_ = st.Close() // the listen error is the one to report
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &env{
		st: st, srv: srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		tr:     tr,
		served: make(chan error, 1),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops serving, drains the diff pool and closes the store, and
// returns once the serving goroutine has exited.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.srv.Close()
	if cerr := e.st.Close(); err == nil {
		err = cerr
	}
	return err
}
