package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// ServeDebug starts an HTTP debug server on addr for the real-network
// substrate (udpnet): /debug/vars serves the process expvars,
// /debug/pprof the usual profiles, and /debug/onepipe the per-stage
// latency breakdown of the supplied tracers as JSON. traces is re-invoked
// on every request, so the view is live.
//
// The returned server is already serving; the caller owns Close. addr may
// use port 0 to let the kernel pick (the bound address is in
// Server.Addr after return).
func ServeDebug(addr string, traces func() map[string]*Trace) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/onepipe", func(w http.ResponseWriter, r *http.Request) {
		out := make(map[string][]SpanSummary)
		if traces != nil {
			for name, t := range traces() {
				out[name] = Summarize(t.Snapshot())
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			http.Error(w, fmt.Sprintf("encode: %v", err), http.StatusInternalServerError)
		}
	})
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	go srv.Serve(ln)
	return srv, nil
}
