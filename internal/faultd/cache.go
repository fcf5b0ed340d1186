package faultd

import (
	"net/http"

	"dmafault/internal/faultd/api"
)

// Cache admin endpoints. The store itself is wired into jobs by runJob and
// runFuzzJob; these handlers only expose its bookkeeping.

// handleCacheStats serves GET /v1/cache/stats. A daemon running without
// -cache-dir still answers 200 — Enabled false tells the client the cache
// plane is off, which is an answer, not an error.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	var out api.CacheStats
	if s.Cache != nil {
		out.Enabled = true
		out.Stats = s.Cache.Stats()
		if n := out.Hits + out.Misses; n > 0 {
			out.HitRate = float64(out.Hits) / float64(n)
		}
	}
	writeJSON(w, http.StatusOK, &out)
}

// handleCacheClear serves DELETE /v1/cache: truncate the shared log and
// empty the index. Running jobs simply start missing; their executions
// repopulate the store. 404 without -cache-dir — there is nothing to clear.
func (s *Server) handleCacheClear(w http.ResponseWriter, r *http.Request) {
	if s.Cache == nil {
		http.Error(w, "no result cache configured (-cache-dir)", http.StatusNotFound)
		return
	}
	dropped, err := s.Cache.Clear()
	if err != nil {
		http.Error(w, "clear cache: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.logger().Info("result cache cleared", "records_dropped", dropped)
	writeJSON(w, http.StatusOK, &api.ClearCacheResponse{Cleared: true, RecordsDropped: dropped})
}
