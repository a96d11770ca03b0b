// Package simdir parses the //simcheck:* source directives shared by the
// simcheck analyzer suite (internal/analysis/...).
//
// Two directives exist:
//
//	//simcheck:hotpath
//	    Placed in the doc comment of a function declaration, it marks the
//	    function as part of the zero-allocation dispatch hot path. The
//	    hotpath analyzer checks every construct inside such a function
//	    that can cause a heap allocation.
//
//	//simcheck:allow(<analyzer>[,<analyzer>...]) <justification>
//	    Placed on (or on the line directly above) a flagged line, it
//	    suppresses the named analyzers' diagnostics for that line. The
//	    justification text is mandatory: an allow marker without one is
//	    itself a diagnostic, so every suppression documents why the
//	    invariant is safe to break at that site. Naming an analyzer the
//	    suite does not know is a diagnostic too (reported by leaklint,
//	    which runs on every package), so a typo cannot silently disable
//	    nothing.
package simdir

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// HotpathMarker is the directive that opts a function into hot-path
// allocation checking.
const HotpathMarker = "//simcheck:hotpath"

var allowRE = regexp.MustCompile(`^//simcheck:allow\(([a-zA-Z0-9_,\- \t]+)\)[ \t]*(.*)$`)

// known is the registry of analyzer names the suite ships. Every
// analyzer package calls Register(Name) at init, so any process that
// imports the suite (cmd/simcheck, the umbrella package, an analyzer's
// own test binary) knows at least the analyzers it runs.
var known = map[string]bool{}

// Register records an analyzer name as valid in allow directives. It is
// called from each analyzer package's init and returns the name so it
// can be used in a package-level var initializer.
func Register(name string) string {
	known[name] = true
	return name
}

// KnownNames returns the registered analyzer names, sorted.
func KnownNames() []string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Allow is one parsed //simcheck:allow directive entry. A directive
// naming several analyzers expands to one Allow per name, sharing the
// position and justification.
type Allow struct {
	Analyzer      string    // one analyzer name from the parenthesized list
	Justification string    // trailing free text; empty is a violation
	Pos           token.Pos // position of the directive comment
	File          string
	Line          int

	used            bool
	reportedMissing bool
}

// Directives indexes every //simcheck:allow directive of the files of one
// analysis pass, keyed by file and line.
type Directives struct {
	allows map[string][]*Allow // filename -> directives, in file order
}

// Parse scans the comments of every file in the pass and returns the
// directive index for it.
func Parse(pass *analysis.Pass) *Directives {
	d := &Directives{allows: make(map[string][]*Allow)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// CRLF sources leave the \r on the comment text; strip it
				// so the justification does not grow an invisible suffix.
				text := strings.TrimRight(c.Text, "\r")
				m := allowRE.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				p := pass.Fset.Position(c.Slash)
				just := strings.TrimSpace(m[2])
				// A trailing comment is not a justification.
				if i := strings.Index(just, "//"); i >= 0 {
					just = strings.TrimSpace(just[:i])
				}
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					d.allows[p.Filename] = append(d.allows[p.Filename], &Allow{
						Analyzer:      name,
						Justification: just,
						Pos:           c.Slash,
						File:          p.Filename,
						Line:          p.Line,
					})
				}
			}
		}
	}
	return d
}

// lookup returns the allow directive covering (file, line) for the named
// analyzer: either a trailing comment on the same line or a comment on the
// line directly above.
func (d *Directives) lookup(analyzer, file string, line int) *Allow {
	for _, a := range d.allows[file] {
		if a.Analyzer != analyzer {
			continue
		}
		if a.Line == line || a.Line == line-1 {
			return a
		}
	}
	return nil
}

// Report emits the diagnostic unless an allow directive for the analyzer
// covers pos. A covering directive with an empty justification is reported
// once as its own violation — suppressions must say why.
func (d *Directives) Report(pass *analysis.Pass, analyzer string, pos token.Pos, format string, args ...any) {
	p := pass.Fset.Position(pos)
	if a := d.lookup(analyzer, p.Filename, p.Line); a != nil {
		a.used = true
		if a.Justification == "" && !a.reportedMissing {
			a.reportedMissing = true
			pass.Reportf(a.Pos, "simcheck:allow(%s) needs a justification after the marker explaining why this site is safe", analyzer)
		}
		return
	}
	pass.Reportf(pos, format, args...)
}

// ReportUnknown flags every allow directive naming an analyzer absent
// from the registry: a misspelled name would otherwise be a silent no-op
// suppressing nothing while looking like a documented exception. Exactly
// one suite member (leaklint, which runs over every package) calls this,
// so the diagnostic appears once per directive.
func (d *Directives) ReportUnknown(pass *analysis.Pass) {
	for _, file := range d.files() {
		for _, a := range d.allows[file] {
			if !known[a.Analyzer] {
				pass.Reportf(a.Pos, "simcheck:allow names unknown analyzer %q (known: %s)",
					a.Analyzer, strings.Join(KnownNames(), ", "))
			}
		}
	}
}

// files returns the indexed filenames in sorted order so diagnostics are
// emitted deterministically.
func (d *Directives) files() []string {
	files := make([]string, 0, len(d.allows))
	for f := range d.allows {
		files = append(files, f)
	}
	sort.Strings(files)
	return files
}

// IsHotpath reports whether the function declaration carries the
// //simcheck:hotpath marker in its doc comment.
func IsHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), HotpathMarker) {
			return true
		}
	}
	return false
}
