package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// TestREADMECommandsNameRealFlags: every craidsim or craidbench command
// line README shows — a line of a fenced code block, or a backticked
// span, that starts with the command (bare, as bin/NAME, or as go run
// ./cmd/NAME) — passes only flags that command declares. The
// declarations are read from the commands' sources with go/parser, and
// a command that calls prof.Flags declares internal/prof's too.
func TestREADMECommandsNameRealFlags(t *testing.T) {
	declared := map[string]map[string]bool{}
	for _, cmd := range []string{"craidsim", "craidbench"} {
		declared[cmd] = declaredFlags(t, filepath.Join("..", cmd, "main.go"))
	}
	if !declared["craidsim"]["fault"] || !declared["craidbench"]["cpuprofile"] {
		t.Fatalf("declarations not found: %v", declared)
	}
	// The scan itself must see a stale flag, or a clean README proves
	// nothing.
	if lines, stale := readmeFlags("```sh\ncraidsim -trace wdev -no-such-flag x\n```\n", declared); lines != 1 || len(stale) != 1 {
		t.Fatalf("a seeded stale flag: %d command lines, stale %v", lines, stale)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines, stale := readmeFlags(string(readme), declared)
	t.Logf("%d command lines in README", lines)
	if lines < 10 {
		t.Fatalf("found %d command lines in README; the scan is broken", lines)
	}
	for _, s := range stale {
		t.Errorf("README: %s", s)
	}
}

// declaredFlags returns the flag names the Go file at path declares: the
// name argument of every flag-defining call (fs.String("name", …),
// flag.IntVar(&v, "name", …) and the like), plus internal/prof's when
// the file calls prof.Flags.
func declaredFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "prof" && sel.Sel.Name == "Flags" {
			for name := range declaredFlags(t, filepath.Join("..", "..", "internal", "prof", "prof.go")) {
				names[name] = true
			}
			return true
		}
		arg, ok := flagNameArg[sel.Sel.Name]
		if ok && len(call.Args) > arg {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					names[name] = true
				}
			}
		}
		return true
	})
	return names
}

// flagNameArg is, for each flag.FlagSet method that defines a flag, the
// index of its name argument.
var flagNameArg = map[string]int{
	"String": 0, "Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0,
	"Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"StringVar": 1, "BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"Float64Var": 1, "DurationVar": 1, "TextVar": 1, "Var": 1,
}

// backticked matches an inline code span, which may wrap a line.
var backticked = regexp.MustCompile("`([^`]+)`")

// readmeFlags scans markdown text for command lines of the commands in
// declared and returns how many it found and one message per flag the
// command does not declare.
func readmeFlags(text string, declared map[string]map[string]bool) (lines int, stale []string) {
	var prose []string
	fenced := false
	check := func(line string) {
		cmd, args := commandLine(line, declared)
		if cmd == "" {
			return
		}
		lines++
		for _, name := range flagNames(args) {
			if !declared[cmd][name] {
				stale = append(stale, cmd+" has no -"+name+": "+strings.TrimSpace(line))
			}
		}
	}
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			check(line)
		default:
			prose = append(prose, line)
		}
	}
	for _, m := range backticked.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		check(strings.ReplaceAll(m[1], "\n", " "))
	}
	return lines, stale
}

// commandLine splits line into the command it runs, if it starts with
// one of declared's commands, and the words after it.
func commandLine(line string, declared map[string]map[string]bool) (cmd string, args []string) {
	words := strings.Fields(line)
	if len(words) >= 3 && words[0] == "go" && words[1] == "run" {
		words = words[2:]
	}
	if len(words) == 0 {
		return "", nil
	}
	name := strings.TrimPrefix(strings.TrimPrefix(words[0], "./cmd/"), "bin/")
	if declared[name] == nil {
		return "", nil
	}
	return name, words[1:]
}

// flagNames returns the names of the flags among a command line's
// words, up to the first shell operator or comment; quoted values are
// skipped whole.
func flagNames(words []string) []string {
	var names []string
	quote := ""
	for _, w := range words {
		switch {
		case quote != "":
			if strings.HasSuffix(w, quote) {
				quote = ""
			}
		case w[0] == '"' || w[0] == '\'':
			if len(w) == 1 || !strings.HasSuffix(w, w[:1]) {
				quote = w[:1]
			}
		case strings.ContainsAny(w[:1], "#|>;&") || strings.HasPrefix(w, "2>"):
			return names
		case w[0] == '-':
			name, _, _ := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if name != "" && unicode.IsLetter(rune(name[0])) { // not a negative number
				names = append(names, name)
			}
		}
	}
	return names
}

// TestREADMENamesRealIdentifiers: every backticked README span shaped
// pkg.Name, pkg.Type.Member or Type.Member (type arguments and a
// trailing argument list allowed, as in oamap.Map[V] or
// CRAID.Expand(devs, retain, done)) whose first segment is one of the
// module's packages or types names something the module's non-test
// sources declare: a func, method, type, field, const or var. Spans
// led by anything else (bytes.Buffer, r.Next()) are not checked.
func TestREADMENamesRealIdentifiers(t *testing.T) {
	idx := indexModule(t, filepath.Join("..", ".."))
	// The scan itself must see a stale name, skip the standard library
	// and resolve a method of a generic type, or a clean README proves
	// nothing.
	seeded := "`Engine.Rewind`, `bytes.Buffer`, `oamap.Map[V].Get` and `sim.Engine.Run`"
	if checked, stale := readmeIdents(seeded, idx); checked != 3 || len(stale) != 1 {
		t.Fatalf("seeded spans: %d checked, stale %v", checked, stale)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	checked, stale := readmeIdents(string(readme), idx)
	t.Logf("%d identifier spans in README", checked)
	if checked < 30 {
		t.Fatalf("checked %d identifier spans in README; the scan is broken", checked)
	}
	for _, s := range stale {
		t.Errorf("README names what the sources do not declare: `%s`", s)
	}
}

// goIndex is what a module's non-test sources declare.
type goIndex struct {
	pkgs    map[string]map[string]bool            // package → top-level names (package main excluded)
	members map[string]map[string]map[string]bool // package → type → its methods and fields
}

// indexModule parses every non-test Go file of the module rooted at
// root, leaving out nested modules and testdata.
func indexModule(t *testing.T, root string) *goIndex {
	t.Helper()
	idx := &goIndex{pkgs: map[string]map[string]bool{}, members: map[string]map[string]map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		idx.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// add records f's top-level declarations, struct fields, interface
// methods and methods.
func (x *goIndex) add(f *ast.File) {
	pkg := f.Name.Name
	if x.members[pkg] == nil {
		x.members[pkg] = map[string]map[string]bool{}
	}
	types := x.members[pkg]
	member := func(typ, name string) {
		if types[typ] == nil {
			types[typ] = map[string]bool{}
		}
		types[typ][name] = true
	}
	top := func(name string) {
		if pkg == "main" {
			return
		}
		if x.pkgs[pkg] == nil {
			x.pkgs[pkg] = map[string]bool{}
		}
		x.pkgs[pkg][name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top(d.Name.Name)
			} else if len(d.Recv.List) == 1 {
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top(n.Name)
					}
				case *ast.TypeSpec:
					name := s.Name.Name
					top(name)
					if types[name] == nil {
						types[name] = map[string]bool{}
					}
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							member(name, n.Name)
						}
						if len(fl.Names) == 0 { // embedded: named after its type
							if n := typeName(fl.Type); n != "" {
								member(name, n)
							}
						}
					}
				}
			}
		}
	}
}

// typeName is the name of the type expression e, without pointer,
// package qualifier or type arguments: Map for *Map[V], Device for
// disk.Device.
func typeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.Sel
		default:
			return ""
		}
	}
}

// goIdent matches one Go identifier.
var goIdent = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// identSegments splits a span shaped a.b or a.b.c, each segment an
// identifier with optional type arguments and the last with an optional
// argument list, into its identifiers; any other span yields nil.
func identSegments(span string) []string {
	if i := strings.IndexByte(span, '('); i >= 0 && strings.HasSuffix(span, ")") {
		span = span[:i]
	}
	segs := strings.Split(span, ".")
	if len(segs) < 2 || len(segs) > 3 {
		return nil
	}
	for i, s := range segs {
		if j := strings.IndexByte(s, '['); j > 0 && strings.HasSuffix(s, "]") {
			s = s[:j]
		}
		if !goIdent.MatchString(s) {
			return nil
		}
		segs[i] = s
	}
	return segs
}

// resolve reports whether segs starts with one of the module's packages
// or types (known) and, if so, whether the whole path is declared.
func (x *goIndex) resolve(segs []string) (known, ok bool) {
	if names, isPkg := x.pkgs[segs[0]]; isPkg {
		known = true
		switch len(segs) {
		case 2:
			ok = names[segs[1]]
		case 3:
			ok = x.members[segs[0]][segs[1]][segs[2]]
		}
		if ok {
			return true, true
		}
	}
	if len(segs) == 2 {
		for _, types := range x.members {
			if m, isType := types[segs[0]]; isType {
				known = true
				if m[segs[1]] {
					return true, true
				}
			}
		}
	}
	return known, false
}

// readmeIdents checks the identifier spans of markdown text outside
// fenced blocks against idx, returning how many it checked and the ones
// that do not resolve.
func readmeIdents(text string, idx *goIndex) (checked int, stale []string) {
	var prose []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
		} else if !fenced {
			prose = append(prose, line)
		}
	}
	for _, m := range backticked.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		segs := identSegments(m[1])
		if segs == nil {
			continue
		}
		known, ok := idx.resolve(segs)
		if !known {
			continue
		}
		checked++
		if !ok {
			stale = append(stale, m[1])
		}
	}
	return checked, stale
}
