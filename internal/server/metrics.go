package server

import (
	"net/http"
	"time"

	"sealdb/internal/obs"
)

// metrics holds the server's hot-path metric handles, registered into
// the DB's own registry so the engine and its front end share one
// /metrics snapshot.
type metrics struct {
	connsAccepted  *obs.Counter
	connsRejected  *obs.Counter
	connErrors     *obs.Counter
	handshakeFails *obs.Counter
	requests       *obs.Counter
	badRequests    *obs.Counter
	bytesIn        *obs.Counter
	bytesOut       *obs.Counter

	coalescedCommits *obs.Counter
	coalescedReqs    *obs.Histogram
	coalescedEntries *obs.Histogram
	coalesceWait     *obs.Histogram

	getLatency   *obs.Histogram
	scanLatency  *obs.Histogram
	writeLatency *obs.Histogram
}

// newMetrics registers the serving-layer series. Counter semantics:
// requests counts decoded frames, bytes are whole-frame wire sizes,
// write latency spans ApplyCtx (group-commit queueing included), and the
// coalesced series count the engine group commits a request headed, from
// the facts ApplyCtx reports — the live view of how well batching works.
func newMetrics(reg *obs.Registry, s *Server) *metrics {
	m := &metrics{
		connsAccepted:    reg.Counter("sealdb_server_conns_accepted_total"),
		connsRejected:    reg.Counter("sealdb_server_conns_rejected_total"),
		connErrors:       reg.Counter("sealdb_server_conn_errors_total"),
		handshakeFails:   reg.Counter("sealdb_server_handshake_failures_total"),
		requests:         reg.Counter("sealdb_server_requests_total"),
		badRequests:      reg.Counter("sealdb_server_bad_requests_total"),
		bytesIn:          reg.Counter("sealdb_server_bytes_in_total"),
		bytesOut:         reg.Counter("sealdb_server_bytes_out_total"),
		coalescedCommits: reg.Counter("sealdb_server_coalesced_commits_total"),
		coalescedReqs:    reg.Histogram("sealdb_server_coalesced_group_requests"),
		coalescedEntries: reg.Histogram("sealdb_server_coalesced_group_entries"),
		coalesceWait:     reg.Histogram("sealdb_server_coalesce_wait_ns"),
		getLatency:       reg.Histogram("sealdb_server_get_latency_ns"),
		scanLatency:      reg.Histogram("sealdb_server_scan_latency_ns"),
		writeLatency:     reg.Histogram("sealdb_server_write_latency_ns"),
	}
	reg.GaugeFunc("sealdb_server_conns_open", func() float64 {
		return float64(len(s.openConns()))
	})
	reg.GaugeFunc("sealdb_server_inflight", func() float64 {
		var n int64
		for _, c := range s.openConns() {
			n += c.pending.Load()
		}
		return float64(n)
	})
	return m
}

// ConnInfo is one row of the /debug/conns payload.
type ConnInfo struct {
	ID         uint64  `json:"id"`
	Remote     string  `json:"remote"`
	AgeSeconds float64 `json:"age_seconds"`
	Handshook  bool    `json:"handshook"`
	Requests   int64   `json:"requests"`
	Inflight   int64   `json:"inflight"`
	BytesIn    int64   `json:"bytes_in"`
	BytesOut   int64   `json:"bytes_out"`
}

// ConnProfile snapshots every live connection, oldest first.
func (s *Server) ConnProfile() []ConnInfo {
	conns := s.openConns()
	out := make([]ConnInfo, 0, len(conns))
	for _, c := range conns {
		out = append(out, ConnInfo{
			ID:         c.id,
			Remote:     c.remote,
			AgeSeconds: time.Since(c.opened).Seconds(),
			Handshook:  c.handshook.Load(),
			Requests:   c.requests.Load(),
			Inflight:   c.pending.Load(),
			BytesIn:    c.bytesIn.Load(),
			BytesOut:   c.bytesOut.Load(),
		})
	}
	// Stable order for humans curl-ing the endpoint.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Handler returns the serving-layer observability handler: the DB's
// /metrics and /debug endpoints (which now include the server's
// series) plus /debug/conns for per-connection state.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	conns := obs.NewMux()
	conns.HandleJSON("/debug/conns", func() any { return s.ConnProfile() })
	mux.Handle("/debug/conns", conns)
	mux.Handle("/", s.db.ObsHandler())
	return mux
}
