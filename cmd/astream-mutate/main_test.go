package main

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// TestRowsFresh is the cheap half of the mutation guard: every row has a
// unique ID, its anchors match exactly once in the tree and every test it
// names is declared, so a refactor that moves a site fails here until its
// row moves with it. Whether the rows are caught takes the runner itself
// (`go run ./cmd/astream-mutate`).
func TestRowsFresh(t *testing.T) {
	var ts []table
	if err := json.Unmarshal(rowsJSON, &ts); err != nil {
		t.Fatal(err)
	}
	root := filepath.Join("..", "..")
	seen := map[string]bool{}
	for _, tb := range ts {
		for _, r := range tb.Rows {
			if seen[r.ID] || r.ID == "" {
				t.Errorf("row ID %q is empty or repeated", r.ID)
			}
			seen[r.ID] = true
			if _, err := mutate(root, r); err != nil {
				t.Errorf("row %s (%s) is stale: %v", r.ID, tb.Table, err)
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("rows.json holds no row")
	}
}

// TestSelectRows pins the two selectors: IDs and touched files select the
// union of their rows, paths no row edits are ignored, and an unknown ID is
// an error.
func TestSelectRows(t *testing.T) {
	ts := []table{{Table: "t", Rows: []row{
		{ID: "a", Edits: []edit{{File: "x/a.go"}}},
		{ID: "b", Edits: []edit{{File: "x/b.go"}}},
		{ID: "c", Edits: []edit{{File: "x/a.go"}, {File: "x/c.go"}}},
	}}}
	ids := func(rows []row) string {
		s := ""
		for _, r := range rows {
			s += r.ID
		}
		return s
	}
	for _, tc := range []struct{ ids, files, want string }{
		{"", "", "abc"},
		{"b", "", "b"},
		{"", "x/a.go\nREADME.md\n", "ac"},
		{"b", "x/c.go", "bc"},
	} {
		rows, err := selectRows(ts, tc.ids, tc.files)
		if err != nil || ids(rows) != tc.want {
			t.Errorf("selectRows(%q, %q) = %q, %v; want %q", tc.ids, tc.files, ids(rows), err, tc.want)
		}
	}
	if _, err := selectRows(ts, "z", ""); err == nil {
		t.Error("an unknown ID selected no error")
	}
}

// TestRunPattern pins the -run patterns of top-level names and of subtests of
// one test, and the rejection of rows that mix the two or name subtests of
// two tests.
func TestRunPattern(t *testing.T) {
	for _, tc := range []struct {
		tests []string
		want  string
	}{
		{[]string{"TestA"}, "^(TestA)$"},
		{[]string{"TestA", "TestB"}, "^(TestA|TestB)$"},
		{[]string{"TestA/sync", "TestA/read-file"}, "^(TestA)$/^(sync|read-file)$"},
	} {
		if got, err := runPattern(tc.tests); err != nil || got != tc.want {
			t.Errorf("runPattern(%q) = %q, %v; want %q", tc.tests, got, err, tc.want)
		}
	}
	for _, tests := range [][]string{{"TestA", "TestA/sync"}, {"TestA/sync", "TestA"}, {"TestA/sync", "TestB/sync"}} {
		if p, err := runPattern(tests); err == nil {
			t.Errorf("runPattern(%q) = %q, want an error", tests, p)
		}
	}
}
