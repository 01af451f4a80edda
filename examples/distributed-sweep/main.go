// Distributed sweep: walk through the dispatch layer end to end, one
// process standing in for a small fleet. The walkthrough
//
//  1. journals a (scenario × variant × seed) matrix into a durable queue,
//  2. serves it over the wire protocol (/book, /progress, /complete) to
//     two workers, killing one mid-cell so its lease expires and the cell
//     re-books,
//  3. "crashes" the dispatcher after the first results land,
//  4. resumes from the journal — finished cells keep their recorded
//     results, in-flight ones re-run — and drains the rest,
//  5. verifies the merged report and per-cell artifact digests are
//     byte-identical to a single-process scenario.Sweep of the same
//     matrix,
//  6. fetches the browsable report bundle over the wire — the workers
//     uploaded every artifact body into the dispatcher's
//     content-addressed store (deduplicated by digest, so the static
//     tables identical across cells landed once) — and
//  7. materializes the bundle to disk, every body digest-verified on the
//     way out of the store.
//
// The same flow runs across real machines with `cmd/dispatchd` on one
// host and `cmd/simworker` on the rest; `dispatchd -resume` or
// `sweep -resume DIR` picks up any interrupted journal and
// `sweep -resume DIR -bundle OUT` exports the bundle.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"reflect"
	"strings"
	"time"

	"sapsim"
	"sapsim/internal/artifact"
	"sapsim/internal/core"
	"sapsim/internal/dispatch"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
)

func main() {
	base := core.DefaultConfig(2024)
	base.Scale = 0.01
	base.VMs = 300
	base.Days = 3
	base.SampleEvery = 30 * sim.Minute

	spec := dispatch.Spec{
		Base:      dispatch.SpecOf(base),
		Scenarios: []string{"baseline", "correlated-failures", "capacity-expansion"},
		Variants:  []string{"default"},
		Seeds:     []uint64{7, 11},
		// Workers stride their cells in 3-simulated-hour steps; between steps
		// they capture at most one snapshot per lease-renewing heartbeat, and
		// each one shipped is a journaled resume point.
		CheckpointEvery: 3 * sim.Hour,
	}

	dir, err := os.MkdirTemp("", "distributed-sweep-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ── 1. Durable queue: the matrix expands into journaled cells. ──────
	queue, err := dispatch.NewQueue(dir, spec, dispatch.QueueOptions{Lease: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	cells := len(queue.Snapshot())
	fmt.Printf("journaled %d cells to %s\n", cells, dir)

	// ── 2. Serve to two workers; one dies mid-cell. ─────────────────────
	ctx := context.Background()
	d := dispatch.NewDispatcher(queue)
	addr, err := d.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}

	victimCtx, killVictim := context.WithCancel(ctx)
	victim := &dispatch.Worker{
		Dispatcher: "http://" + addr, ID: "victim",
		// Snapshot pointers ride heartbeats; beat far faster than a cell runs
		// so the first is accepted mid-run.
		HeartbeatEvery: 2 * time.Millisecond, Poll: 50 * time.Millisecond,
		Hooks: dispatch.WorkerHooks{
			// An accepted snapshot means the cell has resumable state in
			// the store and has not completed; die right there.
			OnSnapshot: func(job int, _ dispatch.BlobRef) { killVictim() },
		},
	}
	victimErr := make(chan error, 1)
	go func() { victimErr <- victim.Run(victimCtx) }()
	<-victimCtx.Done()
	<-victimErr
	fmt.Println("victim worker killed mid-cell; its lease will expire and the cell re-books")

	survivorCtx, crashDispatcher := context.WithCancel(ctx)
	survivor := &dispatch.Worker{
		Dispatcher: "http://" + addr, ID: "survivor",
		HeartbeatEvery: 50 * time.Millisecond, Poll: 50 * time.Millisecond,
	}
	survivorErr := make(chan error, 1)
	go func() { survivorErr <- survivor.Run(survivorCtx) }()

	// ── 3. Crash the dispatcher once results start landing. ─────────────
	for {
		done := 0
		for _, st := range queue.Snapshot() {
			if st.State == "done" {
				done++
			}
		}
		if done >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	crashDispatcher()
	<-survivorErr
	_ = d.Shutdown(context.Background())
	if err := queue.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("dispatcher crashed with cells still in flight")

	// ── 4. Resume from the journal and drain. ───────────────────────────
	resumed, err := dispatch.Resume(dir, dispatch.QueueOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer resumed.Close()
	fmt.Printf("%s\n", resumed.Recovered())
	merged, err := dispatch.RunLocal(ctx, resumed, dispatch.LocalOptions{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}

	// ── 5. Byte-identity against the single-process sweep. ──────────────
	m, err := spec.Matrix()
	if err != nil {
		log.Fatal(err)
	}
	m.Workers = 1
	m.Fingerprint = func(res *core.Result) (map[string]string, error) {
		return sapsim.ArtifactDigests(res)
	}
	reference, err := scenario.Sweep(m)
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Runs, reference.Runs) {
		log.Fatal("dispatched sweep diverged from the single-process reference")
	}
	fmt.Printf("merged result of the killed-and-resumed sweep is byte-identical to scenario.Sweep (%d cells, 18 digests each)\n\n", cells)

	// ── 6. Fetch the browsable bundle over the wire. ────────────────────
	// The workers shipped every artifact body into the store; the drained
	// dispatcher serves the collected report tree at /bundle — path for path
	// and byte for byte the tree step 7 writes to disk.
	d2 := dispatch.NewDispatcher(resumed)
	serveCtx, stopServe := context.WithCancel(ctx)
	defer stopServe()
	addr2, err := d2.Serve(serveCtx, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	report := get("http://" + addr2 + "/bundle/report.txt")
	firstLine, _, _ := strings.Cut(report, "\n")
	fmt.Printf("GET /bundle/report.txt         → %s\n", firstLine)
	run := merged.Runs[0]
	body := get(fmt.Sprintf("http://%s/bundle/cells/%s/%s/seed-%d/table1.txt",
		addr2, run.Key.Scenario, run.Key.Variant, run.Key.Seed))
	if artifact.Digest([]byte(body)) != run.Digests["table1"] {
		log.Fatal("fetched artifact does not hash to its journaled digest")
	}
	fmt.Printf("GET /bundle/cells/.../table1.txt → %d bytes, digest-verified\n", len(body))

	// ── 7. Materialize the digest-verified bundle to disk. ──────────────
	bundleDir, err := os.MkdirTemp("", "sweep-bundle-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(bundleDir)
	manifest, err := artifact.WriteBundle(bundleDir, merged, resumed.Store())
	if err != nil {
		log.Fatal(err)
	}
	bodies := 0
	for _, c := range manifest.Cells {
		bodies += len(c.Artifacts)
	}
	blobs, _ := resumed.Store().Len()
	fmt.Printf("materialized bundle: %d cells, %d artifact bodies, %d distinct blobs in the CAS "+
		"(shared artifacts stored once)\n\n", len(manifest.Cells), bodies, blobs)

	fmt.Print(scenario.Comparative(merged))
	fmt.Print(scenario.ArtifactDiff(merged))
}

// get fetches one URL or dies.
func get(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return string(data)
}
