package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// writeState is the harness's memory of the writes it issued against one
// deployment: what makes the audit read checkable while it moves, and the
// list the durability check replays.
type writeState struct {
	auditBase   int64 // audit rows present at boot
	auditIssued atomic.Int64
	auditAcked  atomic.Int64
	tsNext      []int64 // per client, touched only by that client

	mu         sync.Mutex
	acked      []write
	ackedBytes int64 // /ingest body bytes acknowledged
}

func newWriteState(clients int, sc scale) *writeState {
	return &writeState{auditBase: int64(sc.Audit), tsNext: make([]int64, clients)}
}

// ackedTotals returns how many writes, and how many /ingest body bytes, have
// been acknowledged so far.
func (ws *writeState) ackedTotals() (writes, bytes int64) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return int64(len(ws.acked)), ws.ackedBytes
}

func (ws *writeState) nextTS(client int) int64 {
	ws.tsNext[client]++
	return ws.tsNext[client]
}

func (ws *writeState) nextAuditID() int64 {
	return ws.auditBase + ws.auditIssued.Add(1) - 1
}

// digest is an order-sensitive FNV-1a hash over a result's columns and rows.
// Both sides feed it the same canonical bytes: column names, then every row
// as the JSON array the wire carries, comma separated.
type digest struct {
	h    uint64
	rows bool // a row has been written, so the next one needs a separator
}

func newDigest(columns []string) *digest {
	d := &digest{h: 14695981039346656037}
	for _, c := range columns {
		d.write([]byte(c))
		d.write([]byte{0})
	}
	return d
}

func (d *digest) write(b []byte) {
	h := d.h
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	d.h = h
}

// writeRows adds the inside of a JSON array of rows ("[1,2],[3,4]").
func (d *digest) writeRows(inner []byte) {
	if len(inner) == 0 {
		return
	}
	if d.rows {
		d.write([]byte{','})
	}
	d.rows = true
	d.write(inner)
}

// queryReply is what the harness reads of a buffered /query response.
type queryReply struct {
	Columns    []string        `json:"columns"`
	Rows       json.RawMessage `json:"rows"`
	RowCount   int             `json:"row_count"`
	Migrations int             `json:"migrations"`
}

// arrayInner strips the outer brackets of a JSON array ("[[1],[2]]" ->
// "[1],[2]"); nil for an absent or empty array.
func arrayInner(raw []byte) []byte {
	raw = bytes.TrimSpace(raw)
	if len(raw) < 2 || raw[0] != '[' {
		return nil
	}
	return raw[1 : len(raw)-1]
}

var rowCountKey = []byte(`"row_count":`)

// scanRowCount reads row_count out of a response body without decoding it.
func scanRowCount(body []byte) (int, bool) {
	i := bytes.Index(body, rowCountKey)
	if i < 0 {
		return 0, false
	}
	j := i + len(rowCountKey)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	n, err := strconv.Atoi(string(body[j:k]))
	return n, err == nil
}

var (
	batchPrefix  = []byte(`{"type":"batch","rows":[`)
	batchSuffix  = []byte(`]}`)
	schemaPrefix = []byte(`{"type":"schema"`)
	summaryMark  = []byte(`"type":"summary"`)
	errorMark    = []byte(`"type":"error"`)
	rowSep       = []byte(`],[`)
)

// sample is one completed request of the measured window.
type sample struct {
	end   int64 // ns after the window opened when the last body byte arrived
	lat   int64 // ns, send to last body byte (durable ack for a write)
	ttfr  int64 // ns, send to first batch line; 0 unless streamed
	rows  int32
	bytes int32 // response body bytes
	write bool
}

// checker verifies responses against the oracle and tallies what the guards
// and the failure ratio need. One per phase, shared by the clients.
type checker struct {
	w      *workload
	or     *oracle
	ws     *writeState
	client *http.Client
	url    string

	attempted     atomic.Int64
	failed        atomic.Int64
	checked       atomic.Int64 // responses compared against a twin digest
	rowMismatches atomic.Int64
	migrationsMin atomic.Int64
	done          atomic.Int64 // correct responses, for per-slice allocation

	errMu    sync.Mutex
	firstErr string
}

func newChecker(w *workload, or *oracle, ws *writeState, url string, clients int) *checker {
	c := &checker{w: w, or: or, ws: ws, url: url, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients, DisableCompression: true,
	}}}
	c.migrationsMin.Store(1 << 30)
	return c
}

func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	c.errMu.Lock()
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
	c.errMu.Unlock()
}

// scratch is one client's reusable read buffers, so the harness's own
// allocation per request stays small beside the server's.
type scratch struct {
	body bytes.Buffer
	line []byte
}

// do sends one op and verifies the reply. It returns the sample and whether
// the reply was correct.
func (c *checker) do(o op, sb *scratch, window time.Time) (sample, bool) {
	c.attempted.Add(1)
	var auditLo int64
	if o.key >= 0 && o.key == c.w.auditKey {
		auditLo = c.ws.auditAcked.Load()
	}
	t0 := time.Now()
	resp, err := c.client.Post(c.url+o.path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		c.fail("%s: %v", o.path, err)
		return sample{}, false
	}
	var (
		s  = sample{write: o.write != nil}
		ok bool
	)
	if o.path == "/query/stream" && resp.StatusCode == http.StatusOK {
		ok = c.readStream(o, resp.Body, sb, t0, &s)
	} else {
		buf := &sb.body
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		s.bytes = int32(buf.Len())
		switch {
		case err != nil:
			c.fail("%s: read body: %v", o.path, err)
		case resp.StatusCode != http.StatusOK:
			c.fail("%s: status %d: %s", o.path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
		case o.write != nil:
			ok = true
		default:
			ok = c.checkQuery(o, buf.Bytes(), auditLo, &s)
		}
	}
	_ = resp.Body.Close()
	now := time.Now()
	s.lat = int64(now.Sub(t0))
	s.end = int64(now.Sub(window))
	if ok {
		c.done.Add(1)
		if o.write != nil {
			c.ws.mu.Lock()
			c.ws.acked = append(c.ws.acked, *o.write)
			c.ws.ackedBytes += int64(len(o.body))
			c.ws.mu.Unlock()
			if o.write.series == "" {
				c.ws.auditAcked.Add(1)
			}
		}
	}
	return s, ok
}

// checkQuery verifies a buffered read: the row count always, the digest when
// the key is one the oracle sampled, and the audit count against the writes
// acknowledged before the request and issued by the time it returned.
func (c *checker) checkQuery(o op, body []byte, auditLo int64, s *sample) bool {
	spec := c.w.reads[o.key]
	n, found := scanRowCount(body)
	if !found {
		c.fail("key %d: no row_count in reply", o.key)
		return false
	}
	s.rows = int32(n)
	if spec.rows >= 0 && n != spec.rows {
		c.rowMismatches.Add(1)
		c.fail("key %d: row_count %d, want %d", o.key, n, spec.rows)
		return false
	}
	want, sampled := c.or.digests[o.key]
	if !sampled && o.key != c.w.auditKey {
		return true
	}
	var reply queryReply
	if err := json.Unmarshal(body, &reply); err != nil {
		c.fail("key %d: decode reply: %v", o.key, err)
		return false
	}
	for {
		m := c.migrationsMin.Load()
		if int64(reply.Migrations) >= m || c.migrationsMin.CompareAndSwap(m, int64(reply.Migrations)) {
			break
		}
	}
	if o.key == c.w.auditKey {
		var rows [][]int64
		if err := json.Unmarshal(reply.Rows, &rows); err != nil || len(rows) != 1 || len(rows[0]) != 1 {
			c.fail("audit count: unexpected rows %s", reply.Rows)
			return false
		}
		got, lo, hi := rows[0][0], c.ws.auditBase+auditLo, c.ws.auditBase+c.ws.auditIssued.Load()
		if got < lo || got > hi {
			c.fail("audit count %d outside [%d, %d] (acknowledged before send, issued by reply)", got, lo, hi)
			return false
		}
		return true
	}
	d := newDigest(reply.Columns)
	d.writeRows(arrayInner(reply.Rows))
	c.checked.Add(1)
	if d.h != want {
		c.fail("key %d: result digest %x differs from the sequential no-cache twin's %x", o.key, d.h, want)
		return false
	}
	return true
}

// readStream consumes an NDJSON response: it stamps time to first row,
// counts rows, and for sampled keys digests the concatenated batches, which
// must equal the twin's buffered digest.
func (c *checker) readStream(o op, body io.Reader, sb *scratch, t0 time.Time, s *sample) bool {
	spec := c.w.reads[o.key]
	want, sampled := c.or.digests[o.key]
	var (
		d       *digest
		rows    int
		summary = -1
	)
	sc := bufio.NewScanner(body)
	sc.Buffer(sb.line, 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		s.bytes += int32(len(line)) + 1
		switch {
		case bytes.HasPrefix(line, batchPrefix) && bytes.HasSuffix(line, batchSuffix):
			if s.ttfr == 0 {
				s.ttfr = int64(time.Since(t0))
			}
			inner := line[len(batchPrefix) : len(line)-len(batchSuffix)]
			if len(inner) > 0 {
				rows += bytes.Count(inner, rowSep) + 1
			}
			if d != nil {
				d.writeRows(inner)
			}
		case bytes.HasPrefix(line, schemaPrefix):
			if sampled {
				var rec struct {
					Columns []string `json:"columns"`
				}
				if err := json.Unmarshal(line, &rec); err != nil {
					c.fail("key %d: decode schema record: %v", o.key, err)
					return false
				}
				d = newDigest(rec.Columns)
			}
		case bytes.Contains(line, summaryMark):
			summary, _ = scanRowCount(line)
		case bytes.Contains(line, errorMark):
			c.fail("key %d: in-band stream error: %s", o.key, line)
			return false
		}
	}
	if err := sc.Err(); err != nil {
		c.fail("key %d: read stream: %v", o.key, err)
		return false
	}
	s.rows = int32(rows)
	if summary != rows || (spec.rows >= 0 && rows != spec.rows) {
		c.rowMismatches.Add(1)
		c.fail("key %d: streamed %d rows, summary says %d, want %d", o.key, rows, summary, spec.rows)
		return false
	}
	if sampled {
		c.checked.Add(1)
		if d == nil || d.h != want {
			c.fail("key %d: concatenated batches differ from the twin's buffered result", o.key)
			return false
		}
	}
	return true
}

// drive runs closed-loop clients over the stream from *next until stop says
// so, and returns every client's samples. Each client sends its next request
// only after the previous reply has been read to the end.
func (c *checker) drive(clients int, next *atomic.Int64, window time.Time, stop func(pos int64) bool) []sample {
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sb := &scratch{line: make([]byte, 0, 256<<10)}
			samples := make([]sample, 0, 1<<16)
			for {
				pos := next.Add(1) - 1
				if stop(pos) {
					break
				}
				if s, ok := c.do(c.w.at(int(pos), k, c.ws), sb, window); ok {
					samples = append(samples, s)
				}
			}
			out[k] = samples
		}(k)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// memPoint is the allocator's state at one slice boundary.
type memPoint struct {
	done int64
	ms   runtime.MemStats
}

// windowResult is what one measured window yields.
type windowResult struct {
	samples []sample
	mem     []memPoint // slices+1 boundaries
	slice   time.Duration
}

// slices is how many equal parts the window is cut into. Rates and latency
// percentiles are taken per slice and the median slice reported, so one
// stalled second moves the number less than it would move a whole-window
// figure; the header carries the per-slice series.
const slices = 20

// measure opens the window: clients run for d, a sampler reads the allocator
// at every slice boundary.
func (c *checker) measure(clients int, next *atomic.Int64, d time.Duration) windowResult {
	res := windowResult{slice: d / slices, mem: make([]memPoint, slices+1)}
	runtime.GC()
	t0 := time.Now()
	deadline := t0.Add(d)
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for i := range res.mem {
			time.Sleep(time.Until(t0.Add(time.Duration(i) * res.slice)))
			res.mem[i].done = c.done.Load()
			runtime.ReadMemStats(&res.mem[i].ms)
		}
	}()
	res.samples = c.drive(clients, next, t0, func(int64) bool { return !time.Now().Before(deadline) })
	<-samplerDone
	return res
}

// percentile returns the q-quantile of sorted (nearest rank); 0 if empty.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedInts(v []int64) []int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

const msPerNs = 1e-6

// counts are the sample counts printed beside every percentile, and the
// per-slice series the reported values were picked from.
type counts struct {
	Reads      int `json:"reads"`
	Writes     int `json:"writes"`
	Streams    int `json:"streams"`
	SliceReads int `json:"reads_in_smallest_slice"`
	// Per slice, in window order: how steady the run was.
	SliceRates []float64 `json:"slice_req_per_s"`
	SliceP50   []float64 `json:"slice_lat_p50_ms"`
	SliceP95   []float64 `json:"slice_lat_p95_ms"`
}

// summarize turns the window's samples into end-to-end metrics and the
// client.* and go.* diagnostics.
func (r windowResult) summarize(e2e, layer metricSet) counts {
	var (
		reads, writes, ttfr []int64
		perSlice            [slices][]int64
		ok, rowSum          [slices]float64
		done, respBytes     float64
		first, last         [slices]int64
	)
	for _, s := range r.samples {
		i := int(s.end / int64(r.slice))
		if s.end < 0 || i >= slices {
			continue // finished after the window closed
		}
		if ok[i] == 0 || s.end < first[i] {
			first[i] = s.end
		}
		if s.end > last[i] {
			last[i] = s.end
		}
		ok[i]++
		done++
		respBytes += float64(s.bytes)
		rowSum[i] += float64(s.rows)
		if s.write {
			writes = append(writes, s.lat)
			continue
		}
		reads = append(reads, s.lat)
		perSlice[i] = append(perSlice[i], s.lat)
		if s.ttfr > 0 {
			ttfr = append(ttfr, s.ttfr)
		}
	}
	sortedInts(reads)
	sortedInts(writes)
	sortedInts(ttfr)
	n := counts{Reads: len(reads), Writes: len(writes), Streams: len(ttfr), SliceReads: len(reads)}

	var rows []float64
	for i := 0; i < slices; i++ {
		// Completions per second between the slice's first and last
		// completion: a continuous quantity, where count/length would step.
		if ok[i] >= 2 && last[i] > first[i] {
			perSec := (ok[i] - 1) / (float64(last[i]-first[i]) / 1e9)
			n.SliceRates = append(n.SliceRates, perSec)
			rows = append(rows, perSec*rowSum[i]/ok[i])
		}
		if len(perSlice[i]) < n.SliceReads {
			n.SliceReads = len(perSlice[i])
		}
		if lat := sortedInts(perSlice[i]); len(lat) >= 20 {
			n.SliceP50 = append(n.SliceP50, float64(percentile(lat, 0.50))*msPerNs)
			n.SliceP95 = append(n.SliceP95, float64(percentile(lat, 0.95))*msPerNs)
		}
	}
	if len(n.SliceP50) == 0 { // too few reads to cut: the whole window is one slice
		n.SliceP50 = []float64{float64(percentile(reads, 0.50)) * msPerNs}
		n.SliceP95 = []float64{float64(percentile(reads, 0.95)) * msPerNs}
	}
	// Wall-clock diagnostics: the median slice.
	layer.put("client.req_per_s", median(n.SliceRates))
	layer.put("client.rows_per_s", median(rows))
	layer.put("client.lat_p50_ms", median(n.SliceP50))
	layer.put("client.lat_p95_ms", median(n.SliceP95))
	// What a request costs independent of the clock, over the whole window.
	open, shut := r.mem[0], r.mem[slices]
	if reqs := shut.done - open.done; reqs > 0 {
		e2e.put("alloc_kb_per_req", float64(shut.ms.TotalAlloc-open.ms.TotalAlloc)/float64(reqs)/1024)
		layer.put("go.mallocs_per_req", float64(shut.ms.Mallocs-open.ms.Mallocs)/float64(reqs))
	}
	if done > 0 {
		e2e.put("resp_kb_per_req", respBytes/done/1024)
	}

	layer.put("client.lat_p99_ms", float64(percentile(reads, 0.99))*msPerNs)
	layer.put("client.ttfr_p50_ms", float64(percentile(ttfr, 0.50))*msPerNs)
	layer.put("client.write_lat_p50_ms", float64(percentile(writes, 0.50))*msPerNs)
	layer.put("client.write_lat_p95_ms", float64(percentile(writes, 0.95))*msPerNs)

	layer.put("go.gc_pause_ms_total", float64(shut.ms.PauseTotalNs-open.ms.PauseTotalNs)*msPerNs)
	var peak uint64
	for _, p := range r.mem {
		if p.ms.HeapInuse > peak {
			peak = p.ms.HeapInuse
		}
	}
	layer.put("go.heap_inuse_mb_peak", float64(peak)/(1<<20))
	return n
}
