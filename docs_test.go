package jitckpt_test

// The documents are held to the code: every name README.md, DESIGN.md,
// EXPERIMENTS.md and the verify skill put in backticks must resolve against
// the tree, and every pointer to a DESIGN.md section (the file name, then
// the section's name in double quotes), wherever it is written, must name
// one of DESIGN.md's headings or bold run-in labels. A name that
// cannot be made to resolve goes in scripts/docs.allow with a reason; that
// list is a ratchet like scripts/reach.allow (a stale entry fails, and it
// may not grow past maxDocsAllow).

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The documents whose backticked names must resolve.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// maxDocsAllow caps scripts/docs.allow: the list may only shrink.
const maxDocsAllow = 0

// docTree is what a cited name is resolved against.
type docTree struct {
	pkgs     map[string]*pkgDecls       // package name → declarations (main packages excluded)
	comments map[string][]string        // Go file outside benchmark/ → its comments, joined
	tests    []string                   // Test*, Benchmark*, Fuzz*, Example* functions anywhere
	flags    map[string]map[string]bool // cmd name → flags its main package defines
	bench    map[string]bool            // BENCHMARK.json metric and workload names
	sections []string                   // DESIGN.md headings and bold labels, normalized
	ignored  []string                   // .gitignore patterns: build and run outputs
	files    map[string]bool            // base names of every file in the tree
}

type pkgDecls struct {
	idents  map[string]bool
	types   map[string]bool
	members map[string]map[string]bool // type → its fields and methods
	embeds  map[string][]string        // type → embedded types, "T" or "pkg.T"
}

// loadDocTree reads the tree rooted at the working directory.
func loadDocTree(t testing.TB) *docTree {
	t.Helper()
	d := &docTree{
		pkgs: map[string]*pkgDecls{}, comments: map[string][]string{},
		flags: map[string]map[string]bool{}, bench: map[string]bool{}, files: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); p != "." && (strings.HasPrefix(n, ".") && n != ".claude" && n != ".github" || n == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		d.files[e.Name()] = true
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(p)
		if !strings.HasPrefix(rel, "benchmark/") {
			for _, cg := range f.Comments {
				d.comments[rel] = append(d.comments[rel], joinLines(cg.Text()))
			}
		}
		if strings.HasSuffix(p, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && isTestName(fn.Name.Name) {
					d.tests = append(d.tests, fn.Name.Name)
				}
			}
		}
		if f.Name.Name == "main" {
			if dir := path.Dir(rel); path.Dir(dir) == "cmd" && !strings.HasSuffix(p, "_test.go") {
				d.addFlags(path.Base(dir), f)
			}
			return nil
		}
		d.addDecls(strings.TrimSuffix(f.Name.Name, "_test"), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(d.tests)

	type named []struct{ Name string }
	var bj struct {
		Workloads named
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, l := range []named{bj.Workloads, bj.EndToEnd, bj.PerLayer} {
		for _, m := range l {
			d.bench[m.Name] = true
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(stripFences(string(design)), "\n") {
		if strings.HasPrefix(line, "#") {
			d.sections = append(d.sections, normSection(strings.TrimLeft(line, "# ")))
		}
	}
	for _, m := range boldRE.FindAllStringSubmatch(joinLines(stripFences(string(design))), -1) {
		d.sections = append(d.sections, normSection(m[1]))
	}

	if gi, err := os.ReadFile(".gitignore"); err == nil {
		for _, l := range strings.Fields(string(gi)) {
			d.ignored = append(d.ignored, strings.Trim(l, "/"))
		}
	}
	return d
}

func isTestName(n string) bool {
	for _, p := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if rest, ok := strings.CutPrefix(n, p); ok && (rest == "" || rest[0] == '_' || rest[0] >= 'A' && rest[0] <= 'Z') {
			return true
		}
	}
	return false
}

func (d *docTree) addDecls(pkg string, f *ast.File) {
	pd := d.pkgs[pkg]
	if pd == nil {
		pd = &pkgDecls{idents: map[string]bool{}, types: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
		d.pkgs[pkg] = pd
	}
	member := func(typ, name string) {
		if pd.members[typ] == nil {
			pd.members[typ] = map[string]bool{}
		}
		pd.members[typ][name] = true
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				pd.idents[decl.Name.Name] = true
				continue
			}
			member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						pd.idents[n.Name] = true
					}
				case *ast.TypeSpec:
					pd.idents[spec.Name.Name] = true
					pd.types[spec.Name.Name] = true
					var fields *ast.FieldList
					switch st := spec.Type.(type) {
					case *ast.StructType:
						fields = st.Fields
					case *ast.InterfaceType:
						fields = st.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							member(spec.Name.Name, n.Name)
						}
						if len(fl.Names) == 0 {
							pd.embeds[spec.Name.Name] = append(pd.embeds[spec.Name.Name], typeName(fl.Type))
						}
					}
				}
			}
		}
	}
}

// typeName prints a receiver's or embedded field's type as "T" or "pkg.T".
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return typeName(e.X) + "." + e.Sel.Name
	}
	return ""
}

// flagMethods are the flag package's definers; the name is argument 0, or
// argument 1 for the ones that take a pointer first.
var flagMethods = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0, "Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "StringVar": 1, "Float64Var": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

func (d *docTree) addFlags(cmd string, f *ast.File) {
	if d.flags[cmd] == nil {
		d.flags[cmd] = map[string]bool{"h": true, "help": true}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if i, ok := flagMethods[sel.Sel.Name]; ok && len(call.Args) > i {
			if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					d.flags[cmd][name] = true
				}
			}
		}
		return true
	})
}

var (
	fenceRE   = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```[^\\n]*$")
	spanRE    = regexp.MustCompile("`([^`]+)`")
	boldRE    = regexp.MustCompile(`\*\*([^*]+)\*\*`)
	pointerRE = regexp.MustCompile("DESIGN\\.md`?[,(]?\\s*\\(?\"([^\"]+)\"")
	memberRE  = regexp.MustCompile(`^([A-Za-z]\w*)\.([A-Za-z_]\w*)$`)
	goNameRE  = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?$`)
	testRE    = regexp.MustCompile(`^(?:Test|Benchmark|Fuzz|Example)\w*(?:/\S*)?$`)
	fileRE    = regexp.MustCompile(`^[A-Za-z][\w.-]*\.(go|s|sh|md|json|txt|golden|trace|allow|max|yml|mod)$`)
	cmdRE     = regexp.MustCompile(`^(?:go run \./cmd/)?(jitsim|jitbench|costmodel)(?: |$)`)
	goToolRE  = regexp.MustCompile(`^go (?:run|test|build|vet)\b`)
	spaceRE   = regexp.MustCompile(`\s+`)
)

func stripFences(s string) string { return fenceRE.ReplaceAllString(s, "") }

// joinLines turns wrapped prose into one line, so a code span or a quoted
// section name broken across lines reads whole.
func joinLines(s string) string { return spaceRE.ReplaceAllString(s, " ") }

func normSection(s string) string {
	s = strings.NewReplacer("`", "", "*", "").Replace(s)
	return strings.ToLower(strings.TrimRight(joinLines(strings.TrimSpace(s)), ".: "))
}

// unresolvedIn returns every backticked name in the markdown text md, and
// every DESIGN.md section pointer, that does not resolve.
func (d *docTree) unresolvedIn(md string) []string {
	text := joinLines(stripFences(md))
	var bad []string
	for _, m := range spanRE.FindAllStringSubmatch(text, -1) {
		if name := strings.TrimSpace(m[1]); !d.resolves(name) {
			bad = append(bad, name)
		}
	}
	return append(bad, d.unresolvedPointers(text)...)
}

func (d *docTree) unresolvedPointers(text string) []string {
	var bad []string
	for _, m := range pointerRE.FindAllStringSubmatch(text, -1) {
		if !d.hasSection(m[1]) {
			bad = append(bad, `DESIGN.md "`+m[1]+`"`)
		}
	}
	return bad
}

// hasSection reports whether a pointer names a heading or bold label, or a
// prefix of one; "A → B" names two.
func (d *docTree) hasSection(ptr string) bool {
	for _, part := range strings.Split(ptr, "→") {
		want, found := normSection(part), false
		for _, s := range d.sections {
			if rest, ok := strings.CutPrefix(s, want); ok && (rest == "" || strings.ContainsRune(" ,(:", rune(rest[0]))) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// resolves reports whether a backticked span names something that exists,
// or is not a kind of name this check knows (prose, code, output).
func (d *docTree) resolves(name string) bool {
	name = strings.TrimSuffix(name, "()")
	switch {
	case d.bench[name]:
		return true
	case cmdRE.MatchString(name):
		return d.flagsResolve(name)
	case goToolRE.MatchString(name):
		return d.goCommandResolves(name)
	case testRE.MatchString(name):
		return d.hasTest(strings.SplitN(name, "/", 2)[0])
	case strings.Contains(name, "/"):
		if rest, ok := strings.CutPrefix(strings.TrimPrefix(name, "jitckpt/"), "internal/"); ok {
			if m := goNameRE.FindStringSubmatch(rest); m != nil {
				return d.pkgs[m[1]] != nil && d.goNameResolves(m[1], m[2], m[3])
			}
		}
		return d.pathResolves(name)
	case fileRE.MatchString(name):
		return d.files[name]
	}
	if m := goNameRE.FindStringSubmatch(name); m != nil && d.pkgs[m[1]] != nil {
		return d.goNameResolves(m[1], m[2], m[3])
	}
	if m := memberRE.FindStringSubmatch(name); m != nil {
		return d.memberResolves(m[1], m[2])
	}
	return true
}

// memberResolves checks an unqualified Type.Member: when some package
// declares a type of that name, one of them must have the member.
func (d *docTree) memberResolves(typ, member string) bool {
	declared := false
	for pkg, pd := range d.pkgs {
		if pd.types[typ] {
			declared = true
			if d.hasMember(pkg, typ, member, 0) {
				return true
			}
		}
	}
	return !declared
}

func (d *docTree) hasTest(name string) bool {
	_, ok := slices.BinarySearch(d.tests, name)
	return ok
}

// flagsResolve checks every -flag of a jitsim, jitbench or costmodel command.
func (d *docTree) flagsResolve(cmdline string) bool {
	args := strings.Fields(cmdline)
	cmd := cmdRE.FindStringSubmatch(cmdline)[1]
	for _, a := range args {
		if len(a) > 1 && a[0] == '-' && a[1] >= 'a' && a[1] <= 'z' {
			if !d.flags[cmd][strings.TrimLeft(strings.SplitN(a, "=", 2)[0], "-")] {
				return false
			}
		}
	}
	return true
}

// goCommandResolves checks a go run/test/build/vet line: its ./paths exist,
// and a -run or -bench pattern matches some test function.
func (d *docTree) goCommandResolves(cmdline string) bool {
	args := strings.Fields(cmdline)
	for i, a := range args {
		switch {
		case strings.HasPrefix(a, "./") && a != "./...":
			if _, err := os.Stat(strings.TrimSuffix(a, "/...")); err != nil {
				return false
			}
		case (a == "-run" || a == "-bench") && i+1 < len(args):
			pat := strings.Trim(args[i+1], `'"`)
			if pat == "." || strings.Trim(pat, "x") == "" {
				continue
			}
			if !d.patternMatches(strings.SplitN(pat, "/", 2)[0]) {
				return false
			}
		}
	}
	return true
}

// patternMatches reports whether a -run or -bench pattern matches some test
// function; each top-level alternative of a pattern without groups must.
func (d *docTree) patternMatches(pat string) bool {
	alts := []string{pat}
	if !strings.Contains(pat, "(") {
		alts = strings.Split(pat, "|")
	}
	for _, alt := range alts {
		re, err := regexp.Compile(alt)
		if err != nil || !slices.ContainsFunc(d.tests, re.MatchString) {
			return false
		}
	}
	return true
}

// pathResolves checks a repository path: one whose first element is a
// top-level entry, or a file path relative to internal/. Globs and simple
// {a,b} alternatives expand; build and run outputs (.gitignore) are skipped.
func (d *docTree) pathResolves(p string) bool {
	if strings.ContainsAny(p, " <>%…:?=") || strings.HasPrefix(p, "/") || strings.HasPrefix(p, "http") {
		return true
	}
	p = strings.TrimPrefix(p, "./")
	first := strings.Split(p, "/")[0]
	for _, ig := range d.ignored {
		if strings.HasPrefix(p, ig) {
			return true
		}
	}
	switch _, err := os.Stat(first); {
	case err == nil && first != "":
	case isDir("internal/"+first) && strings.Contains(path.Base(p), "."):
		p = "internal/" + p
	default:
		return true
	}
	for _, alt := range expandBraces(strings.TrimSuffix(p, "/")) {
		if ms, _ := filepath.Glob(alt); len(ms) == 0 {
			return false
		}
	}
	return true
}

func isDir(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && fi.IsDir()
}

func expandBraces(p string) []string {
	i, j := strings.Index(p, "{"), strings.Index(p, "}")
	if i < 0 || j < i {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[i+1:j], ",") {
		out = append(out, expandBraces(p[:i]+alt+p[j+1:])...)
	}
	return out
}

// goNameResolves checks pkg.Ident and pkg.Type.Member, following embedded
// fields for promoted members.
func (d *docTree) goNameResolves(pkg, a, b string) bool {
	if b == "" {
		return d.pkgs[pkg].idents[a]
	}
	return d.hasMember(pkg, a, b, 0)
}

func (d *docTree) hasMember(pkg, typ, name string, depth int) bool {
	pd := d.pkgs[pkg]
	if pd == nil || depth > 4 {
		return false
	}
	if pd.members[typ][name] {
		return true
	}
	for _, e := range pd.embeds[typ] {
		epkg, etyp := pkg, e
		if i := strings.LastIndex(e, "."); i >= 0 {
			epkg, etyp = e[:i], e[i+1:]
		}
		if etyp == name || d.hasMember(epkg, etyp, name, depth+1) {
			return true
		}
	}
	return false
}

// hashCommentText is a script's or workflow's '#' comments, joined.
func hashCommentText(src string) string {
	var b strings.Builder
	for _, l := range strings.Split(src, "\n") {
		if i := strings.Index(l, "#"); i >= 0 {
			b.WriteString(l[i+1:] + " ")
		}
	}
	return joinLines(b.String())
}

// readAllow reads scripts/docs.allow: name<TAB>reason lines, # comments.
func readAllow(t *testing.T, file string) map[string]bool {
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "\t")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %q has no reason (name<TAB>reason)", file, name)
		}
		allow[name] = true
	}
	if len(allow) > maxDocsAllow {
		t.Errorf("%s has %d entries, above maxDocsAllow (%d): the list may only shrink", file, len(allow), maxDocsAllow)
	}
	return allow
}

// TestDocsResolve is the check itself, over the shipped documents.
func TestDocsResolve(t *testing.T) {
	d := loadDocTree(t)
	allow := readAllow(t, filepath.Join("scripts", "docs.allow"))
	used := map[string]bool{}
	report := func(where string, names []string) {
		for _, n := range names {
			if allow[n] {
				used[n] = true
				continue
			}
			t.Errorf("%s: %q does not resolve (fix the text, or add it to scripts/docs.allow with a reason)", where, n)
		}
	}
	for _, doc := range checkedDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		report(doc, d.unresolvedIn(string(raw)))
	}
	// Section pointers elsewhere: the roadmap, scripts, CI and Go comments.
	raw, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	report("ROADMAP.md", d.unresolvedPointers(joinLines(string(raw))))
	scripts, _ := filepath.Glob("scripts/*")
	for _, f := range append(scripts, ".github/workflows/ci.yml") {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		report(f, d.unresolvedPointers(hashCommentText(string(raw))))
	}
	for file, comments := range d.comments {
		for _, c := range comments {
			report(file, d.unresolvedPointers(c))
		}
	}
	for n := range allow {
		if !used[n] {
			t.Errorf("scripts/docs.allow: stale entry %q (it resolves now, or no document cites it)", n)
		}
	}
}

// TestDocsResolverCases keeps the check from passing vacuously: names that
// exist resolve, and names that do not are reported.
func TestDocsResolverCases(t *testing.T) {
	d := loadDocTree(t)
	for _, c := range []struct {
		doc string
		ok  bool
	}{
		{"see `checkpoint.Entries`", true},
		{"the row's `core.Policy.Info`", true},
		{"`core.JobConfig.RackSize` sets it", true},
		{"run `jitsim -rs 2,1 -policy peer`", true},
		{"`TestRankCommitCrashPoints` kills a save", true},
		{"`vclock.cpu_pct` and `wide_state`", true},
		{"`intercept.Layer.Validate` on every rank", true},
		{`as DESIGN.md "Key invariants" says`, true},
		{"DESIGN.md, \"Virtual-time\nkernel\"", true},
		{"`internal/core/tiers.go`, `train/worker.go`, `examples/transparent`", true},
		{"`internal/checkpoint.MultiStep` and `jitckpt/internal/cuda.TestFigure3Pattern`", true},
		{"`go test -run 'TestPolicyTableTiers|TestTierContractComposes' ./internal/core`", true},
		{"prose in code: `h.placement[r]`, `completed: true`, `runtime.coroswitch`", true},
		{"`checkpoint.NoSuch`", false},
		{"`intercept.Validate`", false},
		{"`core.Policy.NoSuch`", false},
		{"`jitsim -debug`", false},
		{"`examples/quickstart`", false},
		{"`internal/elastic` and `jitckpt/internal/elastic.Plan`", false},
		{"`go run ./examples/quickstart`", false},
		{"`TestNoSuchThing`", false},
		{"`vclock.no_such_metric`", false},
		{"`go test -run TestNoSuchThing ./internal/core`", false},
		{"`go test -run 'TestPolicyTableTiers|TestNoSuchThing' ./internal/core`", false},
		{`DESIGN.md "No such section"`, false},
	} {
		got := d.unresolvedIn(c.doc)
		if (len(got) == 0) != c.ok {
			t.Errorf("%q: unresolved %q, want resolves=%v", c.doc, got, c.ok)
		}
	}
}
