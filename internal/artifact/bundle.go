package artifact

import (
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"

	"sapsim/internal/scenario"
)

// BundleFormatVersion versions the manifest a bundle carries.
const BundleFormatVersion = 1

// ManifestCell is one sweep cell's entry in a bundle manifest.
type ManifestCell struct {
	Scenario string
	Variant  string
	Seed     uint64
	Err      string `json:",omitempty"`
	// Artifacts maps artifact ID → SHA-256 digest — the journal's record of
	// the cell, which every materialized body is verified against.
	Artifacts map[string]string `json:",omitempty"`
}

// Manifest indexes a materialized bundle: every cell with its per-artifact
// digests, exactly as the sweep journal recorded them.
type Manifest struct {
	FormatVersion int
	Cells         []ManifestCell
}

// Bundle layout, relative to the bundle root (slash-separated):
//
//	index.html                                  browsable entry point
//	report.txt                                  full comparative report
//	runs.csv                                    per-run metric rows
//	artifact_diff.txt                           per-cell digest diff vs baseline
//	manifest.json                               cells + digests (journal's view)
//	SHA256SUMS                                  one line per body, `sha256sum -c`-able
//	scenarios/<scenario>/report.txt             baseline-vs-scenario comparative
//	cells/<scenario>/<variant>/seed-<seed>/<id>.txt   the artifact bodies
const (
	bundleIndexName    = "index.html"
	BundleReportName   = "report.txt"
	BundleRunsName     = "runs.csv"
	BundleDiffName     = "artifact_diff.txt"
	bundleManifestName = "manifest.json"
	// BundleSumsName is the checksum file a bundle carries:
	// `sha256sum -c SHA256SUMS` inside the bundle re-verifies every
	// materialized artifact body against the journal's digests.
	BundleSumsName = "SHA256SUMS"
)

// CellDir returns a cell's directory inside a bundle, relative to the root
// and slash-separated like every path of the tree.
func CellDir(key scenario.Key) string {
	return path.Join("cells", key.Scenario, key.Variant, fmt.Sprintf("seed-%d", key.Seed))
}

// ErrNotReady is how Bundle.Open declines a file that will exist, but not
// yet — a sweep-wide file of a sweep with cells outstanding, or a body of a
// cell still in flight. (A file the tree does not have and never will — an
// unknown path, a body of a cell that failed — is fs.ErrNotExist.) The
// dispatcher maps the two to 425 and 404.
var ErrNotReady = errors.New("artifact: bundle file not ready")

// Bundle is the report tree over a sweep, with the artifact bodies read out
// of Store: the one definition of every file in the layout above, whether
// WriteBundle materializes it or the dispatcher serves it live. The index
// and the bodies of finished cells open while the sweep runs; everything
// that summarizes the whole sweep waits for the last cell.
type Bundle struct {
	// Sweep holds every cell in sweep order; a cell with no result yet
	// carries only its Key.
	Sweep *scenario.SweepResult
	// Pending names the cells of Sweep that have no result yet, with the
	// queue's word for where each is. Empty for a finished sweep.
	Pending map[scenario.Key]string
	Store   *Store
}

// summaries is the table of the files that summarize the whole sweep: path →
// renderer. One baseline-vs-scenario page per non-baseline scenario: the
// baseline's own numbers are every page's first row (and the full report's),
// so a baseline-vs-itself page would carry nothing.
func (b *Bundle) summaries() map[string]func() string {
	sr := b.Sweep
	files := map[string]func() string{
		BundleReportName:   func() string { return scenario.Comparative(sr) },
		BundleRunsName:     func() string { return scenario.RunsCSV(sr) },
		BundleDiffName:     func() string { return scenario.ArtifactDiff(sr) },
		BundleSumsName:     b.checksums,
		bundleManifestName: func() string { return b.manifest().encode() },
	}
	names := scenario.ScenarioNames(sr)
	for _, name := range names[min(1, len(names)):] {
		files[path.Join("scenarios", name, BundleReportName)] = func() string {
			return scenario.Comparative(scenario.FilterScenarios(sr, names[0], name))
		}
	}
	return files
}

// Paths lists the tree in the order WriteBundle writes it: the bodies of
// every finished cell, then the summaries over them, then the index.
func (b *Bundle) Paths() []string {
	var paths []string
	for _, r := range b.Sweep.Runs {
		for _, id := range bodyIDs(r) {
			paths = append(paths, path.Join(CellDir(r.Key), id+".txt"))
		}
	}
	paths = append(paths, slices.Sorted(maps.Keys(b.summaries()))...)
	return append(paths, bundleIndexName)
}

// Open returns the content of one file of the tree; the root ("") is the
// index. The index and the bodies of finished cells open at any time; a
// summary only once no cell is pending.
func (b *Bundle) Open(rel string) ([]byte, error) {
	if rel == "" || rel == bundleIndexName {
		return []byte(b.index()), nil
	}
	for _, r := range b.Sweep.Runs {
		// cells/<scenario>/<variant>/seed-<seed>/<id>.txt, out of the store.
		file, ok := strings.CutPrefix(rel, CellDir(r.Key)+"/")
		if !ok {
			continue
		}
		id, isTxt := strings.CutSuffix(file, ".txt")
		digest, ok := r.Digests[id]
		switch state, pending := b.Pending[r.Key]; {
		case pending:
			return nil, fmt.Errorf("%w: %s: the cell is %s", ErrNotReady, rel, state)
		case r.Err != "":
			// Terminal: a failed cell will never have artifacts — don't
			// invite a retry loop with not-ready.
			return nil, fmt.Errorf("%w: %s: the cell failed: %s", fs.ErrNotExist, rel, r.Err)
		case isTxt && ok:
			body, err := b.Store.Get(digest)
			if err != nil {
				err = fmt.Errorf("artifact: %s: %w", rel, err)
			}
			return body, err
		}
	}
	render, ok := b.summaries()[rel]
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: %s", fs.ErrNotExist, rel)
	case len(b.Pending) > 0:
		return nil, fmt.Errorf("%w: %s summarizes the whole sweep and %d of %d cells are outstanding",
			ErrNotReady, rel, len(b.Pending), len(b.Sweep.Runs))
	}
	return []byte(render()), nil
}

// WriteBundle materializes a finished sweep as a browsable report tree
// under dir: the comparative reports, one baseline-vs-scenario page per
// scenario, and every cell's artifact bodies read out of the
// content-addressed store — every file Bundle.Open serves, written in
// Bundle.Paths order. Each body is digest-verified on the way out of the
// store (Get re-hashes), so a bundle that materializes without error
// is byte-identical to what the workers produced; SHA256SUMS lets anyone
// re-verify offline. Cells that failed are listed in the manifest and
// index with their error instead of bodies.
func WriteBundle(dir string, sr *scenario.SweepResult, store *Store) (*Manifest, error) {
	if len(sr.Runs) == 0 {
		return nil, fmt.Errorf("artifact: empty sweep, nothing to bundle")
	}
	for _, r := range sr.Runs {
		if r.Err == "" && len(r.Digests) == 0 {
			return nil, fmt.Errorf("artifact: cell %s/%s seed %d has no digests (sweep ran without artifact capture)",
				r.Key.Scenario, r.Key.Variant, r.Key.Seed)
		}
	}
	// Refuse a non-empty target: stale files from an earlier export would
	// survive alongside a manifest and SHA256SUMS that don't mention
	// them, and the mixed tree would still pass `sha256sum -c` — exactly
	// the byte-identity confusion the bundle exists to rule out.
	if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
		return nil, fmt.Errorf("artifact: bundle dir %s is not empty; export into a fresh directory", dir)
	}
	// Paths lists cell bodies first: a bundle whose store cannot produce a
	// referenced body must fail before any summary claims completeness.
	b := &Bundle{Sweep: sr, Store: store}
	for _, rel := range b.Paths() {
		content, err := b.Open(rel)
		if err != nil {
			return nil, err
		}
		file := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			return nil, fmt.Errorf("artifact: bundle dir: %w", err)
		}
		if err := os.WriteFile(file, content, 0o644); err != nil {
			return nil, fmt.Errorf("artifact: writing %s: %w", rel, err)
		}
	}
	return b.manifest(), nil
}

func (b *Bundle) manifest() *Manifest {
	m := &Manifest{FormatVersion: BundleFormatVersion}
	for _, r := range b.Sweep.Runs {
		m.Cells = append(m.Cells, ManifestCell{Scenario: r.Key.Scenario, Variant: r.Key.Variant,
			Seed: r.Key.Seed, Err: r.Err, Artifacts: r.Digests})
	}
	return m
}

func (m *Manifest) encode() string {
	// Strings, integers and string maps only: Marshal cannot fail.
	data, _ := json.MarshalIndent(m, "", "  ")
	return string(data) + "\n"
}

// checksums renders SHA256SUMS: sha256sum's check format — digest, two
// spaces, path — one line per body.
func (b *Bundle) checksums() string {
	var sums strings.Builder
	for _, r := range b.Sweep.Runs {
		for _, id := range bodyIDs(r) {
			fmt.Fprintf(&sums, "%s  %s\n", r.Digests[id], path.Join(CellDir(r.Key), id+".txt"))
		}
	}
	return sums.String()
}

// bodyIDs lists the artifact IDs of a cell's bodies in order; a failed cell
// has none.
func bodyIDs(r scenario.Run) []string {
	if r.Err != "" {
		return nil
	}
	return slices.Sorted(maps.Keys(r.Digests))
}

// index renders the bundle's entry page: sweep summary, the report links,
// and a per-cell table linking every artifact body — or, for a cell with no
// result yet, naming its state.
func (b *Bundle) index() string {
	sr, names := b.Sweep, scenario.ScenarioNames(b.Sweep)
	var page strings.Builder
	page.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>sweep bundle</title>\n")
	page.WriteString("<style>body{font-family:monospace;margin:2em}table{border-collapse:collapse}" +
		"td,th{border:1px solid #999;padding:2px 8px;text-align:left}.err{color:#b00}</style>\n")
	page.WriteString("</head><body>\n<h1>sweep report bundle</h1>\n")
	failed := 0
	for _, r := range sr.Runs {
		if r.Err != "" {
			failed++
		}
	}
	fmt.Fprintf(&page, "<p>%d cells (%d failed), %d scenarios. Every body below is digest-verified; "+
		"re-check offline with <code>sha256sum -c %s</code>.</p>\n",
		len(sr.Runs), failed, len(names), BundleSumsName)
	if len(b.Pending) > 0 {
		fmt.Fprintf(&page, "<p>%d cells outstanding: the reports, manifest and checksums serve once the sweep drains.</p>\n", len(b.Pending))
	}
	page.WriteString("<ul>\n")
	fmt.Fprintf(&page, "<li><a href=%q>comparative report</a></li>\n", BundleReportName)
	fmt.Fprintf(&page, "<li><a href=%q>runs.csv</a></li>\n", BundleRunsName)
	fmt.Fprintf(&page, "<li><a href=%q>artifact diff vs baseline</a></li>\n", BundleDiffName)
	fmt.Fprintf(&page, "<li><a href=%q>manifest.json</a></li>\n", bundleManifestName)
	page.WriteString("</ul>\n<h2>per-scenario comparatives</h2>\n<ul>\n")
	for _, name := range names[min(1, len(names)):] {
		fmt.Fprintf(&page, "<li><a href=\"scenarios/%s/%s\">%s vs %s</a></li>\n",
			html.EscapeString(name), BundleReportName,
			html.EscapeString(name), html.EscapeString(names[0]))
	}
	page.WriteString("</ul>\n<h2>cells</h2>\n<table>\n<tr><th>scenario</th><th>variant</th><th>seed</th><th>artifacts</th></tr>\n")
	for _, r := range sr.Runs {
		fmt.Fprintf(&page, "<tr><td>%s</td><td>%s</td><td>%d</td><td>",
			html.EscapeString(r.Key.Scenario), html.EscapeString(r.Key.Variant), r.Key.Seed)
		switch state, pending := b.Pending[r.Key]; {
		case pending:
			page.WriteString(html.EscapeString(state))
		case r.Err != "":
			fmt.Fprintf(&page, "<span class=\"err\">%s</span>", html.EscapeString(r.Err))
		default:
			for i, id := range bodyIDs(r) {
				if i > 0 {
					page.WriteString(" ")
				}
				fmt.Fprintf(&page, "<a href=\"%s/%s.txt\">%s</a>",
					CellDir(r.Key), html.EscapeString(id), html.EscapeString(id))
			}
		}
		page.WriteString("</td></tr>\n")
	}
	page.WriteString("</table>\n</body></html>\n")
	return page.String()
}
