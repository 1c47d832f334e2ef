package lint

import (
	"go/token"
	"regexp"
	"strings"
)

// This file is the one parser for the package's source directives
// (DESIGN.md §8):
//
//	//lint:<name> [<word>] [<reason…>]
//
// with <name> ignore; any other name is a finding, so a typo or a retired
// name cannot silently drop a check. A directive covers its own line and,
// when it stands alone on its line, the line directly below.

var directiveRe = regexp.MustCompile(`^//lint:([a-z]+)(?:\s+(.*))?$`)

// directive is one parsed //lint: comment.
type directive struct {
	name    string
	pos     token.Position
	ownLine bool   // nothing but whitespace precedes it on its line
	text    string // everything after the name, trimmed
}

// directiveNames are the names some consumer reads.
var directiveNames = map[string]bool{"ignore": true}

// parseDirectives returns every //lint:<name> directive of the package (of
// any name when name is ""), in source order.
func parseDirectives(p *Package, name string) []*directive {
	var out []*directive
	prefix := "//lint:" + name // skips the regexp on ordinary comments
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil || (name != "" && m[1] != name) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				src := p.Src[pos.Filename]
				start := pos.Offset - (pos.Column - 1)
				out = append(out, &directive{
					name:    m[1],
					pos:     pos,
					ownLine: start >= 0 && pos.Offset <= len(src) && strings.TrimSpace(string(src[start:pos.Offset])) == "",
					text:    strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return out
}

// unknownDirectives reports every directive whose name no consumer reads.
func unknownDirectives(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, d := range parseDirectives(p, "") {
		if !directiveNames[d.name] {
			out = append(out, Diagnostic{Analyzer: "lint", Pos: d.pos, Message: "unknown directive //lint:" + d.name + " (known: ignore)"})
		}
	}
	return out
}

// split cuts the directive's text into its first word and the rest (the
// reason, for the names that take a word).
func (d *directive) split() (word, rest string) {
	if i := strings.IndexAny(d.text, " \t"); i >= 0 {
		return d.text[:i], strings.TrimSpace(d.text[i:])
	}
	return d.text, ""
}

// covers reports whether the directive applies to pos: same line, or alone
// on the line directly above.
func (d *directive) covers(pos token.Position) bool {
	return d.pos.Filename == pos.Filename &&
		(d.pos.Line == pos.Line || (d.ownLine && d.pos.Line == pos.Line-1))
}

// missingReason is the finding for a directive whose mandatory reason is
// empty.
func (d *directive) missingReason(analyzer string) Diagnostic {
	return Diagnostic{Analyzer: analyzer, Pos: d.pos, Message: "//lint:" + d.name + " directive is missing a reason"}
}
