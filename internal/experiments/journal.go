package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/sim"
)

// Sweep checkpoint/resume: the journal is an append-only NDJSON file of
// completed run results, written as the sweep progresses so a killed
// sweep loses at most the runs still in flight. Restarting with the same
// journal path replays every journaled result into the cache before any
// simulation starts; the sweep then re-simulates only the remainder and
// produces byte-identical artifacts to an uninterrupted run, because
// sim.Result round-trips exactly through JSON and results are
// deterministic per cache version.
//
// Format (one JSON value per line):
//
//	{"version":3}                 — header; the version is cacheVersion
//	{"key":{...},"result":{...}}  — one completed run (cacheEntry shape)
//
// Each entry is appended with a single O_APPEND write of the whole line,
// so concurrent workers never interleave bytes and a kill can only ever
// truncate the final line. A truncated or corrupt line fails JSON
// parsing on load and is skipped with a warning — that run is simply
// re-simulated. A version-mismatched journal is discarded and restarted
// rather than resumed, so stale results can never leak into artifacts.

// cacheEntry is the serialized form of one run.
type cacheEntry struct {
	Key    RunKey     `json:"key"`
	Result sim.Result `json:"result"`
}

// cacheVersion must change whenever workloads, machines or the simulator
// change in a way that alters results.
const cacheVersion = 3

// journal is the open journal file. Appends are serialized by mu and
// flushed with a single Write, making each line atomic with respect to
// kills.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// AttachJournal opens (creating if absent) the resume journal at path,
// replays its entries into the run cache, and arms journaling so every
// subsequent fresh simulation appends its result. It returns the number
// of entries resumed and the number of corrupt or truncated lines
// skipped (each skipped line is also reported as a warning on Progress
// and as a journal.skip trace event). Runs served from replayed entries
// are annotated [resumed] instead of [cache].
//
// A journal whose version does not match the current cacheVersion is
// truncated and restarted — resuming across simulator versions would
// poison artifacts with stale results.
func (r *Runner) AttachJournal(path string) (resumed, skipped int, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return 0, 0, err
	}
	fresh := os.IsNotExist(err) || len(data) == 0

	entries, skipped, versionOK := parseJournal(data)
	if !fresh && !versionOK {
		r.Progressf("WARN journal %s has a stale version; restarting it\n", path)
		fresh, entries, skipped = true, nil, 0
	}

	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	if fresh {
		flags = os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return 0, 0, err
	}
	if fresh {
		header, _ := json.Marshal(struct {
			Version int `json:"version"`
		}{cacheVersion})
		if _, err := f.Write(append(header, '\n')); err != nil {
			f.Close()
			return 0, 0, fmt.Errorf("experiments: journal header: %w", err)
		}
	}

	r.mu.Lock()
	if r.resumed == nil {
		r.resumed = make(map[RunKey]bool)
	}
	for _, e := range entries {
		r.cache[e.Key] = e.Result
		r.resumed[e.Key] = true
	}
	if r.journal != nil {
		r.journal.f.Close()
	}
	r.journal = &journal{f: f, path: path}
	r.mu.Unlock()

	if skipped > 0 {
		r.Progressf("WARN journal %s: skipped %d corrupt/truncated line(s); those runs will be re-simulated\n",
			path, skipped)
	}
	if r.Metrics != nil && skipped > 0 {
		r.Metrics.Counter("runner_journal_skipped_total").Add(uint64(skipped))
	}
	if r.Tracer.Enabled() {
		r.Tracer.Emit("runner.resume", "journal", path, "resumed", len(entries), "skipped", skipped)
	}
	return len(entries), skipped, nil
}

// parseJournal decodes journal bytes into entries, counting undecodable
// lines (corruption, or the torn final line of a killed run). versionOK
// reports whether the header line matched cacheVersion.
func parseJournal(data []byte) (entries []cacheEntry, skipped int, versionOK bool) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	first := true
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			var hdr struct {
				Version int `json:"version"`
			}
			if json.Unmarshal(line, &hdr) != nil || hdr.Version != cacheVersion {
				return nil, 0, false
			}
			versionOK = true
			continue
		}
		var e cacheEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Key.Machine == "" {
			skipped++
			continue
		}
		entries = append(entries, e)
	}
	return entries, skipped, versionOK
}

// appendJournal persists one completed run if a journal is attached.
// Failures are non-fatal by design — a full disk must not kill a sweep
// that can still finish in memory — and are surfaced as a Progress
// warning plus runner_journal_errors_total.
func (r *Runner) appendJournal(key RunKey, res sim.Result) {
	r.mu.Lock()
	j := r.journal
	r.mu.Unlock()
	if j == nil {
		return
	}
	err := func() error {
		if f := r.FaultFn; f != nil {
			if ferr := f(FaultJournalWrite, key); ferr != nil {
				return ferr
			}
		}
		line, err := json.Marshal(cacheEntry{Key: key, Result: res})
		if err != nil {
			return err
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		_, err = j.f.Write(append(line, '\n'))
		return err
	}()
	if err != nil {
		if r.Metrics != nil {
			r.Metrics.Counter("runner_journal_errors_total").Inc()
		}
		if r.Tracer.Enabled() {
			r.Tracer.Emit("runner.journal_error",
				"machine", key.Machine, "program", key.Program, "class", string(key.Class),
				"cores", key.Cores, "error", err.Error())
		}
		r.Progressf("WARN journal write failed for %s %s.%s n=%d: %v\n",
			key.Machine, key.Program, key.Class, key.Cores, err)
	}
}

// CloseJournal flushes and detaches the resume journal, if any. Safe to
// call when none is attached.
func (r *Runner) CloseJournal() error {
	r.mu.Lock()
	j := r.journal
	r.journal = nil
	r.mu.Unlock()
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
