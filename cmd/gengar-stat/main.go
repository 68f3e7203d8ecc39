// Command gengar-stat is a live status display for a gengard daemon's
// debug endpoint (gengard -debug-addr): it polls /metrics.json and
// renders the counters, gauges and latency digests as a compact table.
//
// Usage:
//
//	gengar-stat -addr localhost:8081              # refresh every 2s
//	gengar-stat -addr localhost:8081 -once        # one snapshot and exit
//	gengar-stat -addr localhost:8081 -filter tcp  # only gengar_tcp_* rows
//	gengar-stat -addr localhost:8081 -trace 16    # tail 16 slow traced ops
//
// When the daemon traces ops (gengard -trace-sample), the display adds
// a per-stage latency pane (gengar_trace_stage_seconds broken down by
// op and stage) and, with -trace N, the last N records of the slow-op
// ring from /debug/trace.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"gengar/internal/telemetry"
	"gengar/internal/telemetry/span"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "gengar-stat: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "localhost:8081", "debug endpoint address (host:port or full URL)")
		interval = flag.Duration("interval", 2*time.Second, "refresh period")
		once     = flag.Bool("once", false, "print one snapshot and exit")
		filter   = flag.String("filter", "", "only show metrics whose name contains this substring")
		traceN   = flag.Int("trace", 0, "also tail the last N slow-op trace records (0 disables)")
	)
	flag.Parse()

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	url := base + "/metrics.json"

	var prev telemetry.Snapshot
	var prevAt time.Time
	for {
		snap, err := fetch(url)
		if err != nil {
			return err
		}
		now := time.Now()
		if !*once {
			fmt.Print("\033[H\033[2J") // clear screen between refreshes
		}
		render(os.Stdout, snap, prev, now.Sub(prevAt), *filter)
		renderShards(os.Stdout, snap)
		renderFlush(os.Stdout, snap)
		renderPeers(os.Stdout, snap)
		renderStages(os.Stdout, snap)
		if *traceN > 0 {
			recs, err := fetchTrace(base, *traceN)
			if err != nil {
				fmt.Fprintf(os.Stdout, "\n(trace ring unavailable: %v)\n", err)
			} else {
				renderTrace(os.Stdout, recs)
			}
		}
		if *once {
			return nil
		}
		prev, prevAt = snap, now
		time.Sleep(*interval)
	}
}

// fetchTrace tails the daemon's slow-op ring (JSONL, oldest first).
func fetchTrace(base string, n int) ([]span.Record, error) {
	resp, err := http.Get(fmt.Sprintf("%s/debug/trace?n=%d", base, n))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/debug/trace: %s", base, resp.Status)
	}
	var out []span.Record
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r span.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func fetch(url string) (telemetry.Snapshot, error) {
	var s telemetry.Snapshot
	resp, err := http.Get(url)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// render prints counters (with a per-second rate once a previous
// snapshot exists), gauges and histogram digests.
func render(w *os.File, snap, prev telemetry.Snapshot, elapsed time.Duration, filter string) {
	rate := func(name string, labels map[string]string, v int64) string {
		if elapsed <= 0 || prev.Counters == nil {
			return ""
		}
		for _, p := range prev.Counters {
			if p.Name == name && sameLabels(p.Labels, labels) {
				return fmt.Sprintf("%.1f/s", float64(v-p.Value)/elapsed.Seconds())
			}
		}
		return ""
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "METRIC\tLABELS\tVALUE\tRATE")
	for _, c := range snap.Counters {
		if !strings.Contains(c.Name, filter) {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\n", c.Name, labelString(c.Labels), c.Value, rate(c.Name, c.Labels, c.Value))
	}
	for _, g := range snap.Gauges {
		if !strings.Contains(g.Name, filter) {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t\n", g.Name, labelString(g.Labels), g.Value)
	}
	tw.Flush()

	shown := false
	for _, h := range snap.Histograms {
		if !strings.Contains(h.Name, filter) || h.Count == 0 {
			continue
		}
		if !shown {
			fmt.Fprintln(w)
			fmt.Fprintln(tw, "LATENCY\tLABELS\tCOUNT\tP50\tP95\tP99\tMAX")
			shown = true
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\t%s\n",
			h.Name, labelString(h.Labels), h.Count,
			time.Duration(h.P50Nanos), time.Duration(h.P95Nanos),
			time.Duration(h.P99Nanos), time.Duration(h.MaxNanos))
	}
	tw.Flush()
}

// frac renders part of whole as a percentage, or "-" for an empty whole.
func frac(part, whole int64) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}

// renderShards prints the allocator-balance pane: per-shard slab
// occupancy of the NVM pool (gengar_alloc_shard_* gauges), the DRAM
// buffer arena's occupancy (one granule allocator, not sharded), and the
// seqlock read-path counters alongside — together they show whether
// client fan-in is actually spreading across the sharded hot paths.
func renderShards(w io.Writer, snap telemetry.Snapshot) {
	used := make(map[string]int64)
	slabs := make(map[string]int64)
	var shards []string
	var bufUsed, bufCap int64
	for _, g := range snap.Gauges {
		shard := g.Labels["shard"]
		switch g.Name {
		case "gengar_alloc_shard_used_bytes":
			if _, seen := used[shard]; !seen {
				shards = append(shards, shard)
			}
			used[shard] += g.Value
		case "gengar_alloc_shard_slabs":
			slabs[shard] += g.Value
		case "gengar_server_buffer_used_bytes":
			bufUsed += g.Value
		case "gengar_server_buffer_capacity_bytes":
			bufCap += g.Value
		}
	}
	if len(shards) == 0 {
		return
	}
	sort.Slice(shards, func(i, j int) bool {
		return len(shards[i]) < len(shards[j]) || (len(shards[i]) == len(shards[j]) && shards[i] < shards[j])
	})
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w)
	fmt.Fprintln(tw, "NVM SHARD\tSLABS\tUSED")
	var totalUsed, totalSlabs int64
	for _, sh := range shards {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", sh, slabs[sh], used[sh])
		totalUsed += used[sh]
		totalSlabs += slabs[sh]
	}
	fmt.Fprintf(tw, "(all)\t%d\t%d\n", totalSlabs, totalUsed)
	tw.Flush()
	fmt.Fprintf(w, "dram buffer: %d of %d bytes hold copies (%s)\n", bufUsed, bufCap, frac(bufUsed, bufCap))

	var retries, fallbacks, hits int64
	for _, c := range snap.Counters {
		switch c.Name {
		case "gengar_read_seqlock_retries_total":
			retries += c.Value
		case "gengar_read_seqlock_fallbacks_total":
			fallbacks += c.Value
		case "gengar_server_cache_hits_total":
			hits += c.Value
		}
	}
	fmt.Fprintf(w, "seqlock: %d hits, %d retries, %d locked fallbacks\n", hits, retries, fallbacks)
}

// renderFlush prints the flush pane: what the proxy flush path
// persisted and how much the coalescer merged (merge ratio = flushed
// records per NVM device write), and the staged-to-applied flush-lag
// quantiles. Shown whenever the snapshot carries the proxy counters; a
// daemon started with -no-proxy still exports them, all reading 0.
func renderFlush(w io.Writer, snap telemetry.Snapshot) {
	var staged, flushed, bytes, writes, coalesced int64
	seen := false
	for _, c := range snap.Counters {
		switch c.Name {
		case "gengar_proxy_staged_total":
			staged += c.Value
			seen = true
		case "gengar_proxy_flushed_total":
			flushed += c.Value
			seen = true
		case "gengar_proxy_flushed_bytes_total":
			bytes += c.Value
		case "gengar_proxy_nvm_writes_total":
			writes += c.Value
		case "gengar_proxy_coalesced_records_total":
			coalesced += c.Value
		}
	}
	if !seen {
		return
	}
	var inflight int64
	for _, g := range snap.Gauges {
		if g.Name == "gengar_proxy_inflight" {
			inflight += g.Value
		}
	}
	merge := "-"
	if writes > 0 {
		merge = fmt.Sprintf("%.2fx", float64(flushed)/float64(writes))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "flush: %d staged, %d flushed (%d inflight), %d nvm writes, merge %s (%d records coalesced), %s persisted\n",
		staged, flushed, inflight, writes, merge, coalesced, humanBytes(bytes))
	for _, h := range snap.Histograms {
		if h.Name != "gengar_proxy_flush_lag_seconds" || h.Count == 0 {
			continue
		}
		suffix := ""
		if len(h.Labels) > 0 {
			suffix = " [" + labelString(h.Labels) + "]"
		}
		fmt.Fprintf(w, "flush lag%s: p50 %s  p95 %s  p99 %s  max %s (%d flushes)\n",
			suffix, time.Duration(h.P50Nanos), time.Duration(h.P95Nanos),
			time.Duration(h.P99Nanos), time.Duration(h.MaxNanos), h.Count)
	}
}

// humanBytes renders a byte count with a binary-prefix unit.
func humanBytes(v int64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(v)/(1<<10))
	}
	return fmt.Sprintf("%d B", v)
}

// renderPeers prints the distributed-cache pane: per-peer link state,
// spilled-copy occupancy and round-trip quantiles
// (gengar_tcp_peer_* series), the local/peer split of DRAM-served
// reads, and what this daemon hosts for its remote homes. Shown only
// when the daemon runs with -peers.
func renderPeers(w io.Writer, snap telemetry.Snapshot) {
	type peer struct {
		up, spilled int64
		rtt         *telemetry.HistogramSample
	}
	peers := make(map[string]*peer)
	get := func(id string) *peer {
		p := peers[id]
		if p == nil {
			p = &peer{}
			peers[id] = p
		}
		return p
	}
	var live int64
	for _, g := range snap.Gauges {
		switch g.Name {
		case "gengar_tcp_peer_up":
			get(g.Labels["peer"]).up = g.Value
		case "gengar_tcp_peer_spilled_bytes":
			get(g.Labels["peer"]).spilled = g.Value
		case "gengar_tcp_peers_live":
			live = g.Value
		}
	}
	if len(peers) == 0 {
		return
	}
	for i := range snap.Histograms {
		h := &snap.Histograms[i]
		if h.Name == "gengar_tcp_peer_rtt_seconds" {
			get(h.Labels["peer"]).rtt = h
		}
	}
	ids := make([]string, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w)
	fmt.Fprintln(tw, "PEER\tUP\tSPILLED\tRTT-OPS\tRTT-P50\tRTT-P99\tRTT-MAX")
	for _, id := range ids {
		p := peers[id]
		up := "down"
		if p.up != 0 {
			up = "up"
		}
		if p.rtt == nil || p.rtt.Count == 0 {
			fmt.Fprintf(tw, "%s\t%s\t%d\t0\t-\t-\t-\n", id, up, p.spilled)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%s\t%s\n",
			id, up, p.spilled, p.rtt.Count,
			time.Duration(p.rtt.P50Nanos), time.Duration(p.rtt.P99Nanos),
			time.Duration(p.rtt.MaxNanos))
	}
	tw.Flush()

	var localHits, peerHits, peerErrs, hostedReads int64
	var hostedCopies, hostedBytes int64
	for _, c := range snap.Counters {
		switch c.Name {
		case "gengar_server_cache_hits_total":
			localHits += c.Value
		case "gengar_server_peer_hits_total":
			peerHits += c.Value
		case "gengar_server_peer_copy_errors_total":
			peerErrs += c.Value
		case "gengar_server_hosted_reads_total":
			hostedReads += c.Value
		}
	}
	for _, g := range snap.Gauges {
		switch g.Name {
		case "gengar_server_hosted_copies":
			hostedCopies += g.Value
		case "gengar_server_hosted_bytes":
			hostedBytes += g.Value
		}
	}
	dram := localHits + peerHits
	fmt.Fprintf(w, "dram hits: %d local + %d peer (%s peer-served), %d peer errors, %d links live\n",
		localHits, peerHits, frac(peerHits, dram), peerErrs, live)
	fmt.Fprintf(w, "hosting for remote homes: %d copies, %d bytes, %d reads served\n",
		hostedCopies, hostedBytes, hostedReads)
}

// renderStages prints the latency-anatomy pane: the per-(op, stage)
// quantiles the tracer exports as gengar_trace_stage_seconds cells.
func renderStages(w io.Writer, snap telemetry.Snapshot) {
	type row struct {
		op, stage string
		h         telemetry.HistogramSample
	}
	var rows []row
	for _, h := range snap.Histograms {
		if h.Name != span.StageMetric || h.Count == 0 {
			continue
		}
		rows = append(rows, row{op: h.Labels["op"], stage: h.Labels["stage"], h: h})
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].op != rows[j].op {
			return rows[i].op < rows[j].op
		}
		return rows[i].stage < rows[j].stage
	})
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w)
	fmt.Fprintln(tw, "OP\tSTAGE\tCOUNT\tP50\tP99\tMAX")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\n",
			r.op, r.stage, r.h.Count,
			time.Duration(r.h.P50Nanos), time.Duration(r.h.P99Nanos), time.Duration(r.h.MaxNanos))
	}
	tw.Flush()
}

// renderTrace prints the slow-op ring tail, one line per record with
// its per-stage breakdown.
func renderTrace(w io.Writer, recs []span.Record) {
	if len(recs) == 0 {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w)
	fmt.Fprintln(tw, "TRACE\tOP\tOBJECT\tSIDE\tTOTAL\tSTAGES")
	for _, r := range recs {
		parts := make([]string, 0, len(r.Stages))
		for _, s := range r.Stages {
			parts = append(parts, fmt.Sprintf("%s=%s", s.Stage, time.Duration(s.Nanos)))
		}
		if r.Dropped > 0 {
			parts = append(parts, fmt.Sprintf("(+%d dropped)", r.Dropped))
		}
		object := "-" // only single-object ops (read, write) name a target
		if r.Addr != 0 {
			object = fmt.Sprintf("%#x+%d", r.Addr, r.Len)
		}
		fmt.Fprintf(tw, "%016x\t%s\t%s\t%s\t%s\t%s\n",
			r.TraceID, r.Op, object, r.Side, time.Duration(r.TotalNanos), strings.Join(parts, " "))
	}
	tw.Flush()
}

func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}

func sameLabels(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
