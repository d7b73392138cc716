package obs

import (
	"net/http"
	"net/http/pprof"
)

// MetricsHandler serves a ledger in Prometheus text exposition format.
func MetricsHandler(s *Set) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, s)
	})
}

// StatsHandler serves a ledger as the JSON live view (the /debug/stats
// endpoint): one object keyed by series, histograms summarized as
// count/sum/mean/p50/p95/p99.
func StatsHandler(s *Set) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = WriteJSON(w, s)
	})
}

// ServeMux builds the metrics endpoint mux over a ledger: /metrics
// (Prometheus text), /debug/stats (JSON live view), and — opt-in, because
// profiles leak timing detail an operator may not want exposed — the
// net/http/pprof handlers under /debug/pprof/.
func ServeMux(s *Set, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(s))
	mux.Handle("/debug/stats", StatsHandler(s))
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
