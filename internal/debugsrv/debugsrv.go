// Package debugsrv serves the operational debug surface of the long-running
// binary (cmd/kv): net/http/pprof profiling endpoints plus expvar counters
// for the hot-path observables — transport send/drop counts, WAL fsync totals, batch sizes. It exists so a perf
// regression in a deployed replica can be diagnosed with stock Go tooling
// (`go tool pprof`, `curl /debug/vars`) instead of bespoke log scraping.
package debugsrv

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"sync"
	"time"
)

// published guards against double-publishing an expvar name (expvar.Publish
// panics on duplicates, and tests may start more than one server per
// process).
var published sync.Map

// Serve starts the debug HTTP listener on addr (host:port; an empty host
// binds all interfaces, port 0 picks a free one) and publishes each entry
// of vars as an expvar evaluated at scrape time. It returns the bound
// address. The server runs until the process exits — debug listeners share
// the process's lifetime, so there is deliberately no Close.
func Serve(addr string, vars map[string]func() any) (string, error) {
	for name, fn := range vars {
		if _, dup := published.LoadOrStore(name, true); dup {
			return "", fmt.Errorf("debugsrv: expvar %q already published", name)
		}
		expvar.Publish(name, expvar.Func(func() any { return fn() }))
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("debugsrv: %w", err)
	}
	srv := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // lifetime of the process
	return ln.Addr().String(), nil
}
