// Package scrape implements the Prometheus pull path: parsing the text
// exposition format and appending scraped samples into the telemetry store.
// Together with internal/exporter it closes the measurement loop of Sec. 4
// (exporter → scrape → TSDB → analysis).
package scrape

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

// ParsedSample is one exposition line: metric name, labels, value.
type ParsedSample struct {
	Name   string
	Labels telemetry.Labels
	Value  float64
}

// Parse reads the Prometheus text format, ignoring comments and blank
// lines. It supports the gauge subset the exporter emits.
func Parse(r io.Reader) ([]ParsedSample, error) {
	var out []ParsedSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("scrape: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseLine parses one sample line: a metric name, an optional label set,
// a value and an optional integer timestamp (milliseconds), the tokens
// separated by blanks or tabs. The timestamp is checked and dropped: a
// scraped sample lands at the scrape's time.
func parseLine(line string) (ParsedSample, error) {
	var s ParsedSample
	nameEnd := strings.IndexAny(line, "{ \t")
	if nameEnd < 0 {
		return s, fmt.Errorf("malformed line %q", line)
	}
	s.Name = line[:nameEnd]
	if !validName(s.Name, true) {
		return s, fmt.Errorf("invalid metric name in %q", line)
	}
	rest := line[nameEnd:]
	if rest[0] == '{' {
		labels, after, err := parseLabels(rest[1:])
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		rest = after
	}
	fields := strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' || r == '\t' })
	if len(fields) == 0 || len(fields) > 2 {
		return s, fmt.Errorf("want a value and at most a timestamp in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp in %q: %w", line, err)
		}
	}
	s.Value = v
	return s, nil
}

// validName reports whether name is a metric name ([a-zA-Z_:][a-zA-Z0-9_:]*)
// or, without colons, a label name.
func validName(name string, metric bool) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9' || metric && c == ':') {
			return false
		}
	}
	return name != ""
}

// parseLabels parses a label set from just after its '{' through its '}',
// and returns what follows. The set ends at the first '}' outside a quoted
// value: the exporter quotes values with %q, so a value may hold a '}'.
func parseLabels(body string) (telemetry.Labels, string, error) {
	var pairs []string
	for {
		body = strings.TrimSpace(body)
		if body == "" {
			return telemetry.Labels{}, "", errors.New("unterminated label set")
		}
		if body[0] == '}' {
			labels, err := telemetry.NewLabels(pairs...)
			return labels, body[1:], err
		}
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return telemetry.Labels{}, "", fmt.Errorf("malformed labels %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		if !validName(key, false) {
			return telemetry.Labels{}, "", fmt.Errorf("invalid label name %q", key)
		}
		body = body[eq+1:]
		if len(body) == 0 || body[0] != '"' {
			return telemetry.Labels{}, "", fmt.Errorf("unquoted label value after %q", key)
		}
		// Find the closing quote, honoring escapes.
		end := -1
		for i := 1; i < len(body); i++ {
			if body[i] == '\\' {
				i++
				continue
			}
			if body[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return telemetry.Labels{}, "", fmt.Errorf("unterminated label value after %q", key)
		}
		val, err := strconv.Unquote(body[:end+1])
		if err != nil {
			return telemetry.Labels{}, "", fmt.Errorf("bad label value after %q: %w", key, err)
		}
		pairs = append(pairs, key, val)
		body = strings.TrimSpace(body[end+1:])
		if strings.HasPrefix(body, ",") {
			body = body[1:]
		} else if !strings.HasPrefix(body, "}") {
			return telemetry.Labels{}, "", fmt.Errorf("want ',' or '}' after label %q", key)
		}
	}
}

// Scraper pulls one or more HTTP targets into a telemetry store.
type Scraper struct {
	Store *telemetry.Store
	// Client is the HTTP client; http.DefaultClient when nil.
	Client *http.Client
}

// ScrapeTarget GETs the target's /metrics endpoint and appends every sample
// at simulation time now, labelled with the target's instance (its
// host:port) as Prometheus does, so two targets that expose one series land
// as two series. Returns the number of samples ingested.
func (s *Scraper) ScrapeTarget(url string, now sim.Time) (int, error) {
	client := s.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(url)
	if err != nil {
		return 0, fmt.Errorf("scrape: %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("scrape: %s: status %d", url, resp.StatusCode)
	}
	return s.ingest(resp.Body, now, instanceLabel(url))
}

// Ingest parses exposition text and appends the samples, labelled as
// exposed, at time now: one Store.Append per sample. Samples that fail the
// out-of-order check are dropped one at a time and excluded from the
// returned count; the rest of the scrape still lands, and the rejections
// come back joined.
func (s *Scraper) Ingest(r io.Reader, now sim.Time) (int, error) {
	return s.ingest(r, now, "")
}

// ingest is Ingest with an instance label added to every sample, unless
// instance is empty.
func (s *Scraper) ingest(r io.Reader, now sim.Time, instance string) (int, error) {
	samples, err := Parse(r)
	if err != nil {
		return 0, err
	}
	n := 0
	var errs []error
	for _, smp := range samples {
		labels := smp.Labels
		if instance != "" {
			labels = labels.With("instance", instance)
		}
		if err := s.Store.Append(smp.Name, labels, now, smp.Value); err != nil {
			errs = append(errs, err)
			continue
		}
		n++
	}
	return n, errors.Join(errs...)
}

// instanceLabel derives the "instance" label value from a target URL:
// its host:port, or the raw string when it does not parse.
func instanceLabel(target string) string {
	if u, err := url.Parse(target); err == nil && u.Host != "" {
		return u.Host
	}
	return target
}
