// Package dataset reads and writes the released telemetry artifact: CSV
// files with one row per sample, anonymized the way the paper describes
// (Appendix A: "metadata, such as hostnames, project IDs, and IP addresses
// were consistently hashed or removed").
//
// Schema (header included):
//
//	metric,ts_seconds,value,labels
//
// where labels is a semicolon-separated k=v list with values consistently
// hashed for the configured label keys.
package dataset

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

// Anonymizer consistently hashes entity identifiers: equal inputs map to
// equal outputs within one dataset, but the mapping is not reversible.
type Anonymizer struct {
	salt string
	memo map[string]string
}

// NewAnonymizer creates an anonymizer with a dataset-specific salt.
func NewAnonymizer(salt string) *Anonymizer {
	return &Anonymizer{salt: salt, memo: make(map[string]string)}
}

// Hash returns the stable pseudonym of an identifier.
func (a *Anonymizer) Hash(id string) string {
	if h, ok := a.memo[id]; ok {
		return h
	}
	sum := sha256.Sum256([]byte(a.salt + "\x00" + id))
	h := hex.EncodeToString(sum[:6]) // 12 hex chars, like the released data
	a.memo[id] = h
	return h
}

// DefaultAnonymizedLabels lists the label keys whose values carry entity
// identity and must be hashed before release.
func DefaultAnonymizedLabels() map[string]bool {
	return map[string]bool{
		"hostsystem":     true,
		"virtualmachine": true,
		"project":        true,
	}
}

// WriteOptions configures export.
type WriteOptions struct {
	// Anonymizer hashes the values of AnonymizeLabels; nil disables
	// anonymization (for internal round-trips).
	Anonymizer      *Anonymizer
	AnonymizeLabels map[string]bool
}

// Write exports every series of the store. Rows are ordered by metric name,
// then label fingerprint, then time, so output is deterministic.
func Write(w io.Writer, store *telemetry.Store, opts WriteOptions) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"metric", "ts_seconds", "value", "labels"}); err != nil {
		return err
	}
	for _, metric := range store.Metrics() {
		series := store.Select(metric)
		sort.Slice(series, func(i, j int) bool {
			return series[i].Labels.String() < series[j].Labels.String()
		})
		for _, s := range series {
			labelStr := encodeLabels(s.Labels, opts)
			for i := 0; i < s.Len(); i++ {
				smp := s.Sample(i)
				rec := []string{
					metric,
					strconv.FormatFloat(smp.T.Seconds(), 'f', -1, 64),
					strconv.FormatFloat(smp.V, 'g', -1, 64),
					labelStr,
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// encodeLabels renders the label set as k=v;k2=v2 in name order, hashing
// the values of the anonymized keys.
func encodeLabels(l telemetry.Labels, opts WriteOptions) string {
	pairs := l.Pairs()
	out := make([]string, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		key, val := pairs[i], pairs[i+1]
		if opts.Anonymizer != nil && opts.AnonymizeLabels[key] {
			val = opts.Anonymizer.Hash(val)
		}
		out = append(out, key+"="+val)
	}
	return strings.Join(out, ";")
}

// Read imports a dataset CSV into a fresh telemetry store.
func Read(r io.Reader) (*telemetry.Store, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if header[0] != "metric" || header[1] != "ts_seconds" || header[2] != "value" || header[3] != "labels" {
		return nil, fmt.Errorf("dataset: unexpected header %v", header)
	}
	store := telemetry.NewStore()
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		line++
		ts, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad timestamp %q", line, rec[1])
		}
		val, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad value %q", line, rec[2])
		}
		labels, err := decodeLabels(rec[3])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		t := sim.Time(ts * float64(sim.Second))
		if err := store.Append(rec[0], labels, t, val); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
	}
	return store, nil
}

func decodeLabels(s string) (telemetry.Labels, error) {
	if s == "" {
		return telemetry.Labels{}, nil
	}
	var pairs []string
	for _, part := range strings.Split(s, ";") {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return telemetry.Labels{}, fmt.Errorf("malformed label %q", part)
		}
		pairs = append(pairs, part[:eq], part[eq+1:])
	}
	return telemetry.NewLabels(pairs...)
}
