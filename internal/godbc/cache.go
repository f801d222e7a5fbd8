package godbc

// Result-cache statistics. The cache itself lives server side (one per sqldb
// engine, so every kojakdb shard caches independently); this file surfaces
// its counters to clients through the ReqCacheStats request.

import (
	"errors"

	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// CacheStats is a snapshot of a database's result-cache counters. For a
// sharded database it is the sum over all shards. The JSON tags are the
// field names of the /metrics endpoint's "cache" section.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
	Entries       int   `json:"entries"`
}

// CacheStats fetches the server's result-cache counters. ok is true whenever
// err is nil: every server answers ReqCacheStats. The result stays so every
// executor reports cache counters through the same three-result method.
func (c *Conn) CacheStats() (stats CacheStats, ok bool, err error) {
	return cacheStatsReply(c.roundTrip(&wire.Request{Kind: wire.ReqCacheStats}))
}

// cacheStatsReply interprets a ReqCacheStats reply.
func cacheStatsReply(resp *wire.Response, err error) (CacheStats, bool, error) {
	if resp, err = replyErr(resp, err); err != nil {
		return CacheStats{}, false, err
	}
	if resp.Cache == nil {
		return CacheStats{}, false, errNoStats
	}
	return CacheStats(*resp.Cache), true, nil
}

// errNoStats is the failure of a stats reply that carries no counters.
var errNoStats = errors.New("godbc: protocol error: stats reply carries no counters")

// CacheStats fetches the server's result-cache counters on a pooled
// connection.
func (p *Pool) CacheStats() (CacheStats, bool, error) {
	c, err := p.Get()
	if err != nil {
		return CacheStats{}, false, err
	}
	defer p.Put(c)
	return c.CacheStats()
}

// CacheStats sums the result-cache counters over every shard — each shard
// caches independently, so the merged snapshot is simply the total.
// Transport failures are tagged with the dead shard's address.
func (s *ShardedDB) CacheStats() (CacheStats, bool, error) {
	var total CacheStats
	for i, p := range s.pools {
		st, _, err := p.CacheStats()
		if err != nil {
			return CacheStats{}, false, s.tag(i, err)
		}
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Invalidations += st.Invalidations
		total.Evictions += st.Evictions
		total.Entries += st.Entries
	}
	return total, true, nil
}

// fromEngine converts the embedded engine's counters.
func fromEngine(db *sqldb.DB) CacheStats {
	st := db.Stats()
	return CacheStats{
		Hits:          st.ResultCacheHits,
		Misses:        st.ResultCacheMisses,
		Invalidations: st.ResultCacheInvalidations,
		Evictions:     st.ResultCacheEvictions,
		Entries:       st.ResultCacheEntries,
	}
}

// CacheStats reads the in-process engine's result-cache counters directly.
func (e Embedded) CacheStats() (CacheStats, bool, error) {
	return fromEngine(e.DB), true, nil
}

// CacheStats reads the in-process engine's result-cache counters directly.
func (e ProfiledEmbedded) CacheStats() (CacheStats, bool, error) {
	return fromEngine(e.DB), true, nil
}
