package main

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// goldenSeed is the one seed whose fingerprints are pinned; any other seed
// is checked rep against rep and against the set-up reference only.
const goldenSeed = 42

//go:embed golden/*.txt
var goldenFS embed.FS

func goldenName(workload string) string {
	return fmt.Sprintf("golden/%s.seed%d.txt", workload, goldenSeed)
}

// loadGolden returns the pinned fingerprint of a full-size run at the
// golden seed: one "key<TAB>value" line per operation.
func loadGolden(workload string, seed uint64, sz sizes) (fingerprint, bool) {
	if seed != goldenSeed || sz.short {
		return nil, false
	}
	data, err := goldenFS.ReadFile(goldenName(workload))
	if err != nil {
		return nil, false
	}
	fp := fingerprint{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if key, value, ok := strings.Cut(line, "\t"); ok {
			fp[key] = value
		}
	}
	return fp, true
}

// writeGolden pins fp in the source tree (-update-golden); the next build
// embeds it.
func writeGolden(workload string, seed uint64, fp fingerprint) error {
	if seed != goldenSeed {
		return fmt.Errorf("-update-golden pins seed %d only, not %d", goldenSeed, seed)
	}
	keys := make([]string, 0, len(fp))
	for k := range fp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%s\n", k, fp[k])
	}
	path := filepath.Join("bench", goldenName(workload))
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("-update-golden runs from the repository root: %w", err)
	}
	fmt.Fprintf(os.Stderr, "golden: wrote %d entries to %s\n", len(fp), path)
	return nil
}
