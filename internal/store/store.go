// Package store persists and loads datasets: the verified follow graph in a
// compact varint-delta CSR binary format, profiles as gzip-compressed JSON
// lines, and activity series as CSV. The on-disk layout is a directory:
//
//	dataset/
//	  graph.bin          varint CSR digraph
//	  profiles.jsonl.gz  one JSON profile per line
//	  activity.csv       date,value daily series
//	  meta.json          counts and provenance
//
// Formats are versioned and self-describing enough that a partial dataset
// (graph only) loads cleanly.
package store

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"elites/internal/graph"
	"elites/internal/timeseries"
	"elites/internal/twitter"
)

// Format errors.
var (
	ErrBadMagic   = errors.New("store: bad magic")
	ErrBadVersion = errors.New("store: unsupported version")
)

const (
	graphMagic   = "ELGR"
	graphVersion = 1
	// readAhead caps the capacity ReadGraph reserves from the header's
	// counts before reading the rows that back them.
	readAhead = 1 << 16
)

// WriteGraph encodes g to w: header, then per-row degree + delta-encoded
// sorted adjacency, all varints.
func WriteGraph(w io.Writer, g *graph.Digraph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(graphMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(graphVersion); err != nil {
		return err
	}
	n := g.NumNodes()
	if err := writeUvarint(uint64(n)); err != nil {
		return err
	}
	if err := writeUvarint(uint64(g.NumEdges())); err != nil {
		return err
	}
	for u := 0; u < n; u++ {
		row := g.OutNeighbors(u)
		if err := writeUvarint(uint64(len(row))); err != nil {
			return err
		}
		prev := int32(-1)
		for _, v := range row {
			// Rows are strictly increasing, so deltas are >= 1;
			// store delta-1 to squeeze a little more.
			if err := writeUvarint(uint64(v - prev - 1)); err != nil {
				return err
			}
			prev = v
		}
	}
	return bw.Flush()
}

// ReadGraph decodes a graph written by WriteGraph.
func ReadGraph(r io.Reader) (*graph.Digraph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != graphMagic {
		return nil, ErrBadMagic
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if version != graphVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	m64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n64 > 1<<31 {
		return nil, fmt.Errorf("store: implausible node count %d", n64)
	}
	n := int(n64)
	// The header's counts are claims: both slices grow toward them with
	// the rows and edges actually read (each at least one byte of input),
	// so a short file that names a huge graph fails at its end instead of
	// allocating what it names, and a whole one ends at exactly the
	// header's capacity.
	offsets := make([]int64, 1, min(n64, readAhead)+1)
	adj := make([]int32, 0, min(m64, readAhead))
	for u := 0; u < n; u++ {
		deg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		prev := int64(-1)
		for i := uint64(0); i < deg; i++ {
			delta, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			v := prev + 1 + int64(delta)
			if delta >= uint64(n) || v >= int64(n) {
				return nil, fmt.Errorf("store: node out of range in row %d", u)
			}
			var room bool
			if adj, room = growToward(adj, m64); !room {
				return nil, fmt.Errorf("store: edge count mismatch: header %d, rows hold more", m64)
			}
			adj = append(adj, int32(v))
			prev = v
		}
		offsets, _ = growToward(offsets, n64+1)
		offsets = append(offsets, int64(len(adj)))
	}
	if uint64(len(adj)) != m64 {
		return nil, fmt.Errorf("store: edge count mismatch: header %d, rows %d", m64, len(adj))
	}
	return graph.NewFromCSR(n, offsets, adj)
}

// growToward makes room in s for one more element, doubling its capacity
// but never past limit, so that a slice grown element by element to limit
// ends with capacity exactly limit. room is false when s is already full
// at limit.
func growToward[T any](s []T, limit uint64) (_ []T, room bool) {
	if len(s) < cap(s) {
		return s, true
	}
	if uint64(cap(s)) >= limit {
		return s, false
	}
	grown := make([]T, len(s), min(limit, 2*uint64(cap(s))))
	copy(grown, s)
	return grown, true
}

// storedProfile is the JSON wire form of twitter.Profile.
type storedProfile struct {
	ID         int64  `json:"id"`
	ScreenName string `json:"screen_name"`
	Name       string `json:"name"`
	Bio        string `json:"bio"`
	Lang       string `json:"lang"`
	Verified   bool   `json:"verified"`
	Category   uint8  `json:"category"`
	Followers  int64  `json:"followers"`
	Friends    int64  `json:"friends"`
	Statuses   int64  `json:"statuses"`
	Listed     int64  `json:"listed"`
	CreatedAt  string `json:"created_at"`
}

// WriteProfiles writes gzip-compressed JSON lines.
func WriteProfiles(w io.Writer, profiles []twitter.Profile) error {
	gz := gzip.NewWriter(w)
	enc := json.NewEncoder(gz)
	for _, p := range profiles {
		sp := storedProfile{
			ID: p.ID, ScreenName: p.ScreenName, Name: p.Name, Bio: p.Bio,
			Lang: p.Lang, Verified: p.Verified, Category: uint8(p.Category),
			Followers: p.Followers, Friends: p.Friends,
			Statuses: p.Statuses, Listed: p.Listed,
			CreatedAt: p.CreatedAt.UTC().Format(time.RFC3339),
		}
		if err := enc.Encode(&sp); err != nil {
			return err
		}
	}
	return gz.Close()
}

// ReadProfiles reads what WriteProfiles wrote.
func ReadProfiles(r io.Reader) ([]twitter.Profile, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer gz.Close()
	dec := json.NewDecoder(gz)
	var out []twitter.Profile
	for {
		var sp storedProfile
		if err := dec.Decode(&sp); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		created, err := time.Parse(time.RFC3339, sp.CreatedAt)
		if err != nil {
			return nil, fmt.Errorf("store: bad created_at %q: %w", sp.CreatedAt, err)
		}
		// WriteProfiles writes the UTC instant, which RFC 3339 can spell
		// only within years 0000-9999; an offset can carry it outside.
		if y := created.UTC().Year(); y < 0 || y > 9999 {
			return nil, fmt.Errorf("store: created_at %q is outside years 0000-9999 in UTC", sp.CreatedAt)
		}
		out = append(out, twitter.Profile{
			ID: sp.ID, ScreenName: sp.ScreenName, Name: sp.Name, Bio: sp.Bio,
			Lang: sp.Lang, Verified: sp.Verified,
			Category:  twitter.Category(sp.Category),
			Followers: sp.Followers, Friends: sp.Friends,
			Statuses: sp.Statuses, Listed: sp.Listed, CreatedAt: created,
		})
	}
	return out, nil
}

// WriteSeries writes a daily series as "date,value" CSV with a header.
func WriteSeries(w io.Writer, s *timeseries.DailySeries) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("date,value\n"); err != nil {
		return err
	}
	for i, v := range s.Values {
		line := s.Date(i).Format("2006-01-02") + "," +
			strconv.FormatFloat(v, 'g', -1, 64) + "\n"
		if _, err := bw.WriteString(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSeries reads what WriteSeries wrote.
func ReadSeries(r io.Reader) (*timeseries.DailySeries, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, errors.New("store: empty series file")
	}
	if got := sc.Text(); got != "date,value" {
		return nil, fmt.Errorf("store: bad series header %q", got)
	}
	out := &timeseries.DailySeries{}
	line := 0
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), ",", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("store: bad series line %d", line+2)
		}
		date, err := time.Parse("2006-01-02", parts[0])
		if err != nil {
			return nil, fmt.Errorf("store: bad date on line %d: %w", line+2, err)
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("store: bad value on line %d: %w", line+2, err)
		}
		if line == 0 {
			out.Start = date
		} else if !out.Date(line).Equal(date) {
			return nil, fmt.Errorf("store: non-contiguous dates at line %d", line+2)
		}
		out.Values = append(out.Values, v)
		line++
	}
	return out, sc.Err()
}

// Meta records dataset provenance.
type Meta struct {
	Nodes         int       `json:"nodes"`
	Edges         int64     `json:"edges"`
	TotalVerified int       `json:"total_verified"`
	CreatedAt     time.Time `json:"created_at"`
	Tool          string    `json:"tool"`
	Seed          uint64    `json:"seed"`
}

// SaveDataset writes a dataset directory.
func SaveDataset(dir string, ds *twitter.Dataset, activity *timeseries.DailySeries, meta Meta) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "graph.bin"), func(w io.Writer) error {
		return WriteGraph(w, ds.Graph)
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "profiles.jsonl.gz"), func(w io.Writer) error {
		return WriteProfiles(w, ds.Profiles)
	}); err != nil {
		return err
	}
	if activity != nil {
		if err := writeFile(filepath.Join(dir, "activity.csv"), func(w io.Writer) error {
			return WriteSeries(w, activity)
		}); err != nil {
			return err
		}
	}
	meta.Nodes = ds.Graph.NumNodes()
	meta.Edges = ds.Graph.NumEdges()
	meta.TotalVerified = ds.TotalVerified
	return writeFile(filepath.Join(dir, "meta.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&meta)
	})
}

// LoadDataset reads a dataset directory; activity may be nil if absent.
func LoadDataset(dir string) (*twitter.Dataset, *timeseries.DailySeries, *Meta, error) {
	g, err := readFileGraph(filepath.Join(dir, "graph.bin"))
	if err != nil {
		return nil, nil, nil, err
	}
	var profiles []twitter.Profile
	pf, err := os.Open(filepath.Join(dir, "profiles.jsonl.gz"))
	if err == nil {
		profiles, err = ReadProfiles(pf)
		pf.Close()
		if err != nil {
			return nil, nil, nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, err
	}
	if profiles != nil && len(profiles) != g.NumNodes() {
		return nil, nil, nil, fmt.Errorf("store: %d profiles for %d nodes", len(profiles), g.NumNodes())
	}
	var activity *timeseries.DailySeries
	af, err := os.Open(filepath.Join(dir, "activity.csv"))
	if err == nil {
		activity, err = ReadSeries(af)
		af.Close()
		if err != nil {
			return nil, nil, nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, err
	}
	var meta Meta
	mf, err := os.Open(filepath.Join(dir, "meta.json"))
	if err == nil {
		err = json.NewDecoder(mf).Decode(&meta)
		mf.Close()
		if err != nil {
			return nil, nil, nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, err
	}
	ds := &twitter.Dataset{Graph: g, Profiles: profiles, TotalVerified: meta.TotalVerified}
	return ds, activity, &meta, nil
}

func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readFileGraph(path string) (*graph.Digraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadGraph(f)
}
