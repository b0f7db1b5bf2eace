package kprof

import (
	"encoding/json"
	"io"
)

// Row ties one experiment's kernel-profile report to its grid
// coordinates. cmd/sweep writes a []Row JSON document via -kprof-json.
type Row struct {
	App      string  `json:"app"`
	Scheme   string  `json:"scheme"`
	Procs    int     `json:"procs"`
	Topology string  `json:"topology"`
	Shards   int     `json:"shards"`
	Report   *Report `json:"report"`
}

// WriteRows writes rows as an indented JSON array.
func WriteRows(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
