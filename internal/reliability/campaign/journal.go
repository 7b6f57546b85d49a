package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The journal is an append-only JSONL checkpoint: one header line
// binding the file to a campaign fingerprint, then one record per
// completed shard. Appends are fsynced, so after a crash the file is
// a valid prefix of the uninterrupted journal plus at most one torn
// line, which Open discards (by truncation) before resuming. Because
// every shard's trials are derived purely from (config, cell, trial),
// replaying the missing shards after a resume reproduces exactly the
// bytes an uninterrupted run would have produced.

// journalVersion is bumped on any format change; Open rejects other
// versions rather than guessing.
const journalVersion = 1

type journalHeader struct {
	Kind        string `json:"kind"`
	V           int    `json:"v"`
	Fingerprint string `json:"fingerprint"`
	Config      Config `json:"config"`
}

// ShardRecord is one completed shard's outcome tally.
type ShardRecord struct {
	Cell   int    `json:"cell"`
	Shard  int    `json:"shard"`
	Key    string `json:"key"`
	Counts Counts `json:"counts"`
}

// ShardKey identifies a shard within a plan.
type ShardKey struct {
	Cell, Shard int
}

// Journal is an open campaign checkpoint file.
type Journal struct {
	f *os.File
}

// OpenJournal opens (or creates) the journal at path for the campaign
// identified by fingerprint, returning the shards it already records.
// A journal for a different campaign is an error, not a resume, and so
// is a record that does not fit the plan of cfg (see Plan.checkRecord).
// A torn trailing line — the crash signature of a mid-append kill — is
// truncated away.
func OpenJournal(path, fingerprint string, cfg Config) (*Journal, map[ShardKey]Counts, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("campaign: journal dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	j := &Journal{f: f}
	recs, keep, headerOK, err := j.load(fingerprint)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	done, err := resumed(norm, recs)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: journal %s corrupt: %w", path, err)
	}
	// Drop any torn tail, then position for append.
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: truncate torn journal tail: %w", err)
	}
	if _, err := f.Seek(keep, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	if !headerOK {
		hdr := journalHeader{Kind: "campaign-journal", V: journalVersion, Fingerprint: fingerprint, Config: norm}
		if err := j.appendLine(hdr); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return j, done, nil
}

// resumed checks the journaled shard records against the plan of cfg
// and returns their tallies. The plan is built only when there are
// records to check.
func resumed(cfg Config, recs []ShardRecord) (map[ShardKey]Counts, error) {
	done := make(map[ShardKey]Counts, len(recs))
	if len(recs) == 0 {
		return done, nil
	}
	plan, err := NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if err := plan.checkRecord(rec); err != nil {
			return nil, err
		}
		done[ShardKey{rec.Cell, rec.Shard}] = rec.Counts
	}
	return done, nil
}

// checkRecord rejects a shard record that the plan could not have
// written: a shard the plan does not have, a cell key other than the
// plan's, or a tally with a count outside [0, shard size] or a total
// other than the shard size. Bounding each count keeps the total from
// overflowing into a plausible value.
func (p *Plan) checkRecord(rec ShardRecord) error {
	perCell := (p.Config.TrialsPerCell + p.Config.ShardTrials - 1) / p.Config.ShardTrials
	if rec.Cell < 0 || rec.Cell >= len(p.Cells) || rec.Shard < 0 || rec.Shard >= perCell {
		return fmt.Errorf("shard %d#%d is not in the plan", rec.Cell, rec.Shard)
	}
	cell, sh := p.Cells[rec.Cell], p.Shards[rec.Cell*perCell+rec.Shard]
	if rec.Key != cell.Key() {
		return fmt.Errorf("shard %s#%d is recorded under cell %q", cell.Key(), sh.Index, rec.Key)
	}
	size := sh.Hi - sh.Lo
	c := rec.Counts
	for _, n := range []int{c.Clean, c.Corrected, c.Uncorrectable, c.Silent} {
		if n < 0 || n > size {
			return fmt.Errorf("shard %s#%d has a count of %d in a %d-trial shard", cell.Key(), sh.Index, n, size)
		}
	}
	if got := c.Total(); got != size {
		return fmt.Errorf("journaled shard %s#%d tallies %d trials, plan says %d", cell.Key(), sh.Index, got, size)
	}
	return nil
}

// load parses the journal, returning the recorded shards, the byte
// offset of the end of the last intact line (the valid prefix to keep),
// and whether an intact header was found. A final line that is
// incomplete or unparsable is the torn-append crash signature and is
// simply excluded from the kept prefix; a bad line anywhere *before*
// the end is corruption and an error.
func (j *Journal) load(fingerprint string) ([]ShardRecord, int64, bool, error) {
	if _, err := j.f.Seek(0, 0); err != nil {
		return nil, 0, false, err
	}
	data, err := io.ReadAll(j.f)
	if err != nil {
		return nil, 0, false, err
	}
	var recs []ShardRecord
	var keep int64
	headerOK := false
	pos := 0
	for pos < len(data) {
		nl := bytes.IndexByte(data[pos:], '\n')
		torn := nl < 0 // no terminator: the append was cut mid-line
		var line []byte
		next := len(data)
		if !torn {
			line = data[pos : pos+nl]
			next = pos + nl + 1
		} else {
			line = data[pos:]
		}
		lastLine := next >= len(data)
		if len(bytes.TrimSpace(line)) == 0 {
			if !torn {
				keep = int64(next)
			}
			pos = next
			continue
		}
		if !headerOK {
			var hdr journalHeader
			if uerr := json.Unmarshal(line, &hdr); uerr != nil || torn {
				if lastLine {
					// Torn header: nothing durable yet, start over.
					return nil, 0, false, nil
				}
				return nil, 0, false, fmt.Errorf("campaign: journal %s has a corrupt header", j.f.Name())
			}
			if hdr.Kind != "campaign-journal" || hdr.V != journalVersion {
				return nil, 0, false, fmt.Errorf("campaign: journal %s is %s v%d, want campaign-journal v%d", j.f.Name(), hdr.Kind, hdr.V, journalVersion)
			}
			if hdr.Fingerprint != fingerprint {
				return nil, 0, false, fmt.Errorf("campaign: journal %s belongs to campaign %.12s, not %.12s", j.f.Name(), hdr.Fingerprint, fingerprint)
			}
			headerOK = true
			keep = int64(next)
			pos = next
			continue
		}
		var rec ShardRecord
		if uerr := json.Unmarshal(line, &rec); uerr != nil || torn {
			if lastLine {
				return recs, keep, true, nil
			}
			return nil, 0, false, fmt.Errorf("campaign: journal %s corrupt (bad record before EOF)", j.f.Name())
		}
		recs = append(recs, rec)
		keep = int64(next)
		pos = next
	}
	return recs, keep, headerOK, nil
}

// Append durably records one completed shard.
func (j *Journal) Append(rec ShardRecord) error {
	return j.appendLine(rec)
}

func (j *Journal) appendLine(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("campaign: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("campaign: journal sync: %w", err)
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }
