package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"sapsim/internal/scrape"
)

// The exporter prints the address it bound, so an ephemeral port is
// scrapeable, and shuts down cleanly when -timeout elapses.
func TestServesScrapeableMetrics(t *testing.T) {
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-timeout", "500ms"}, pw, &stderr)
		pw.Close()
	}()

	lines := bufio.NewScanner(pr)
	var url string
	for url == "" && lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "serving Prometheus metrics on "); ok {
			url, _, _ = strings.Cut(rest, " ")
		}
	}
	if url == "" {
		t.Fatalf("no serving line: %v %s", <-done, stderr.String())
	}
	var rest strings.Builder
	copied := make(chan struct{})
	go func() {
		for lines.Scan() {
			rest.WriteString(lines.Text() + "\n")
		}
		close(copied)
	}()

	resp, err := http.Get("http://" + url)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := scrape.Parse(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Error("scrape returned no samples")
	}

	if err := <-done; err != nil {
		t.Fatalf("exporter: %v", err)
	}
	<-copied
	if !strings.Contains(rest.String(), "500ms elapsed, shutting down") {
		t.Errorf("no shutdown line:\n%s", rest.String())
	}
}

func TestUnusableAddressFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-addr", "127.0.0.1:-1", "-scale", "0.01", "-vms", "10"}, &stdout, &stderr); err == nil {
		t.Error("listening on an invalid address succeeded")
	}
}
