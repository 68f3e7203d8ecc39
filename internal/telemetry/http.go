package telemetry

import (
	"fmt"
	"net/http"
	"time"
)

// Handler returns the live debug endpoint mux served by gengard's
// -debug-addr listener:
//
//	GET /metrics       Prometheus text exposition of a fresh snapshot
//	GET /metrics.json  the same snapshot as JSON (gengar-stat polls this)
//	GET /healthz       liveness + uptime as JSON
func Handler(reg *Registry) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.Snapshot().WritePrometheus(w)
	})

	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.Snapshot().WriteJSON(w)
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_s\":%.1f}\n", time.Since(start).Seconds())
	})

	return mux
}
