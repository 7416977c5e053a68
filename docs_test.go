package diag_test

// Documentation hygiene tests. These run in the ordinary suite (and
// the CI docs job) so the docs rot no faster than the code: every
// relative markdown link must resolve, and every exported symbol of
// the public package must carry a doc comment.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// markdownFiles returns every tracked .md file of the repository
// (skipping hidden directories), relative to the repo root.
func markdownFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	return files
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks resolves every relative link target in every
// markdown file. External links (http/https/mailto) and pure anchors
// are skipped; fenced code blocks are skipped so shell snippets that
// happen to contain "](...)"-shaped text cannot false-positive.
func TestMarkdownLinks(t *testing.T) {
	for _, file := range markdownFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		for lineNo, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.HasPrefix(target, "http://") ||
					strings.HasPrefix(target, "https://") ||
					strings.HasPrefix(target, "mailto:") ||
					strings.HasPrefix(target, "#") {
					continue
				}
				target = strings.SplitN(target, "#", 2)[0] // drop anchor
				resolved := filepath.Join(filepath.Dir(file), target)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s:%d: broken link %q (resolved %s)", file, lineNo+1, m[1], resolved)
				}
			}
		}
	}
}

// TestExportedDocComments requires a doc comment on every exported
// top-level declaration of the public package and of the packages that
// back its documented surfaces (internal/explore feeds docs/EXPLORER.md
// verbatim). A doc comment on the enclosing GenDecl (a documented
// const/var block) covers its members, matching godoc's own rendering.
func TestExportedDocComments(t *testing.T) {
	for dir, pkgName := range map[string]string{
		".":                "diag",
		"internal/explore": "explore",
	} {
		checkExportedDocs(t, dir, pkgName)
	}
}

func checkExportedDocs(t *testing.T, dir, pkgName string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs[pkgName]
	if !ok {
		t.Fatalf("package %s not found in %s (got %v)", pkgName, dir, pkgs)
	}
	for name, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc.Text() == "" {
					t.Errorf("%s: exported func %s has no doc comment", name, d.Name.Name)
				}
			case *ast.GenDecl:
				blockDoc := d.Doc.Text() != ""
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && !blockDoc && s.Doc.Text() == "" && s.Comment.Text() == "" {
							t.Errorf("%s: exported type %s has no doc comment", name, s.Name.Name)
						}
					case *ast.ValueSpec:
						if !blockDoc && s.Doc.Text() == "" && s.Comment.Text() == "" {
							for _, id := range s.Names {
								if id.IsExported() {
									t.Errorf("%s: exported %s has no doc comment", name, id.Name)
								}
							}
						}
					}
				}
			}
		}
	}
}

// ---- Fenced-command flag audit ----

// toolFlags parses the Go source of one directory and collects every
// command-line flag name registered in it: flag.String(...)-style
// calls on any receiver (the flag package, a *flag.FlagSet) plus the
// ...Var variants. Literal names only — which is all the tools use.
func toolFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{"h": true, "help": true} // flag package built-ins
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				name, isVar := strings.CutSuffix(sel.Sel.Name, "Var")
				switch name {
				case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration":
				default:
					return true
				}
				idx := 0 // flag name argument position
				if isVar {
					idx = 1
				}
				if len(call.Args) <= idx {
					return true
				}
				if lit, ok := call.Args[idx].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					flags[strings.Trim(lit.Value, `"`)] = true
				}
				return true
			})
		}
	}
	return flags
}

// usesCoreFlags reports whether the tool calls cliutil.Flags and so
// inherits the shared -parallel/-seed/-journal/... set.
func usesCoreFlags(t *testing.T, dir string) bool {
	t.Helper()
	out, err := os.ReadFile(filepath.Join(dir, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Contains(string(out), "cliutil.Flags(")
}

var toolToken = regexp.MustCompile(`(?:^|/)(diag-[a-z]+)$`)

// number matches a negative numeric value token (e.g. "-1") so it is
// not mistaken for a flag.
var number = regexp.MustCompile(`^-[0-9][0-9.]*$`)

// TestFencedCommandFlags audits every diag-* invocation inside fenced
// code blocks of every markdown file: a flag used in an example must
// actually be registered by that tool. This is the check that catches
// docs going stale when a flag is renamed or removed.
func TestFencedCommandFlags(t *testing.T) {
	tools := map[string]map[string]bool{}
	dirs, err := filepath.Glob("cmd/diag-*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no cmd/diag-* dirs (%v)", err)
	}
	core := toolFlags(t, "internal/cliutil")
	for _, dir := range dirs {
		name := filepath.Base(dir)
		flags := toolFlags(t, dir)
		if usesCoreFlags(t, dir) {
			for f := range core {
				flags[f] = true
			}
		}
		tools[name] = flags
	}

	for _, file := range markdownFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		inFence := false
		for i := 0; i < len(lines); i++ {
			line := lines[i]
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if !inFence {
				continue
			}
			lineNo := i + 1
			// Join backslash continuations into one logical command.
			for strings.HasSuffix(strings.TrimRight(line, " \t"), `\`) && i+1 < len(lines) {
				line = strings.TrimSuffix(strings.TrimRight(line, " \t"), `\`) + " " + lines[i+1]
				i++
			}
			auditCommandLine(t, tools, file, lineNo, line)
		}
	}
}

// auditCommandLine scans one shell line for diag-* invocations and
// reports any that names no cmd/ tool, and any -flag not registered
// by the named tool.
func auditCommandLine(t *testing.T, tools map[string]map[string]bool, file string, lineNo int, line string) {
	t.Helper()
	var tool string // current tool, "" until an invocation token is seen
	for _, tok := range strings.Fields(line) {
		switch tok {
		case "|", "||", "&&", ";", ">", ">>", "2>", "<":
			tool = ""
			continue
		}
		if m := toolToken.FindStringSubmatch(tok); m != nil {
			tool = m[1]
			if _, known := tools[tool]; !known {
				t.Errorf("%s:%d: %s is not a tool under cmd/ (command: %s)",
					file, lineNo, tool, strings.TrimSpace(line))
				tool = ""
			}
			continue
		}
		if tool == "" || !strings.HasPrefix(tok, "-") || number.MatchString(tok) {
			continue
		}
		name := strings.TrimLeft(tok, "-")
		name, _, _ = strings.Cut(name, "=")
		if name == "" {
			continue
		}
		if !tools[tool][name] {
			t.Errorf("%s:%d: %s does not have a flag -%s (command: %s)",
				file, lineNo, tool, name, strings.TrimSpace(line))
		}
	}
}
