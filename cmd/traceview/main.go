// Command traceview pretty-prints a -trace-out span file (one JSON span
// record per line, as eliteanalyze, eliteserve and eliterouter write it)
// as indented duration trees, one per trace, in the order the traces
// first appear in the file:
//
//	trace 4bf92f3577b34da6a3ce929d0e0e4736
//	router.request 12.4ms status=200
//	  router.attempt 3.1ms worker=127.0.0.1:9001 [retry]
//	  serve.report 8.9ms
//	    pipeline 8.2ms
//	      stage.degree 400µs cache_hit=true
//
// Each tree is obs.RenderTree's, the same one slow-request log dumps
// carry. With no file argument the records are read from stdin.
//
// Usage:
//
//	traceview trace.jsonl                 # every trace
//	traceview -trace <traceid> trace.jsonl  # one trace
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"elites/internal/obs"
)

func main() {
	want := flag.String("trace", "", "print only the trace with this id")
	flag.Parse()
	if err := run(os.Stdout, os.Stdin, flag.Args(), *want); err != nil {
		fmt.Fprintln(os.Stderr, "traceview:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, stdin io.Reader, files []string, want string) error {
	var order []string
	traces := map[string][]obs.SpanRecord{}
	read := func(name string, r io.Reader) error {
		dec := json.NewDecoder(r)
		for {
			var rec obs.SpanRecord
			if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
				return nil
			} else if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if want != "" && rec.Trace != want {
				continue
			}
			if _, seen := traces[rec.Trace]; !seen {
				order = append(order, rec.Trace)
			}
			traces[rec.Trace] = append(traces[rec.Trace], rec)
		}
	}
	if len(files) == 0 {
		if err := read("stdin", stdin); err != nil {
			return err
		}
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		err = read(name, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if len(order) == 0 {
		if want != "" {
			return fmt.Errorf("no spans for trace %s", want)
		}
		return errors.New("no spans")
	}
	for _, id := range order {
		if _, err := fmt.Fprintf(w, "trace %s\n%s", id, obs.RenderTree(traces[id])); err != nil {
			return err
		}
	}
	return nil
}
