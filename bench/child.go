package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// runChild runs one workload in a process of its own, as the driver does,
// so that runs share no heap and no peak RSS. dir is the checkout to run
// in and binary the benchmark built from it ("" for this one). The child's
// report goes to stdout unless quiet; its result line comes back parsed.
func runChild(dir, binary, workload string, seed uint64, seconds float64, trace int, quiet bool) (resultLine, error) {
	var line resultLine
	if binary == "" {
		self, err := os.Executable()
		if err != nil {
			return line, err
		}
		binary = self
	}
	cmd := exec.Command(binary, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if !quiet {
		cmd.Stdout = io.MultiWriter(&out, os.Stdout)
	}
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return line, fmt.Errorf("%s: %w", workload, runErr)
		}
		return line, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	if !line.Correct {
		return line, fmt.Errorf("%s: %d of %d checks failed", workload, line.Failed, line.Attempted)
	}
	return line, runErr
}
