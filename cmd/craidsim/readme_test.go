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
