package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// This file is the one parser for the package's source directives
// (DESIGN.md §8):
//
//	//lint:<name> [<word>] [<reason…>]
//
// with <name> one of ignore, hotpath, pooled, ephemeral. A directive covers
// its own line and, when it stands alone on its line, the line directly
// below; on a function declaration it may also sit anywhere in the doc
// comment. Every name shares these rules, the missing-reason finding, and
// the attached-to-nothing finding, so an annotation that drifts off its
// declaration is reported instead of silently switching a check off.

var directiveRe = regexp.MustCompile(`^//lint:([a-z]+)(?:\s+(.*))?$`)

// directive is one parsed //lint: comment.
type directive struct {
	name    string
	pos     token.Position
	ownLine bool   // nothing but whitespace precedes it on its line
	text    string // everything after the name, trimmed
	used    bool   // attached to a declaration (set by the consumer)
}

// parseDirectives returns every //lint:<name> directive of the package, in
// source order.
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
				if m == nil || m[1] != name {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				src := p.Src[pos.Filename]
				start := pos.Offset - (pos.Column - 1)
				out = append(out, &directive{
					name:    name,
					pos:     pos,
					ownLine: start >= 0 && pos.Offset <= len(src) && strings.TrimSpace(string(src[start:pos.Offset])) == "",
					text:    strings.TrimSpace(m[2]),
				})
			}
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

// directiveFor returns the first directive covering the declaration at pos
// or sitting inside its doc comment (nil for declarations without one), and
// marks it used.
func directiveFor(dirs []*directive, p *Package, pos token.Pos, doc *ast.CommentGroup) *directive {
	at := p.Fset.Position(pos)
	var from, to int
	if doc != nil {
		from, to = p.Fset.Position(doc.Pos()).Line, p.Fset.Position(doc.End()).Line
	}
	for _, d := range dirs {
		if d.covers(at) || (d.pos.Filename == at.Filename && from <= d.pos.Line && d.pos.Line <= to) {
			d.used = true
			return d
		}
	}
	return nil
}

// missingReason is the finding for a directive whose mandatory reason is
// empty.
func (d *directive) missingReason(analyzer string) Diagnostic {
	return Diagnostic{Analyzer: analyzer, Pos: d.pos, Message: "//lint:" + d.name + " directive is missing a reason"}
}

// unattached reports every directive no declaration claimed.
func unattached(dirs []*directive, analyzer, what string) []Diagnostic {
	var out []Diagnostic
	for _, d := range dirs {
		if !d.used {
			out = append(out, Diagnostic{Analyzer: analyzer, Pos: d.pos, Message: "//lint:" + d.name + " directive " + what})
		}
	}
	return out
}
