// Command unreached lists the non-generic functions and methods under
// internal/ that no program of the module reaches, and checks the list
// against scripts/testonly_allowlist.txt; `make testonly` runs it from
// the module root:
//
//	go run ./scripts/unreached
//
// Reachability is the linker's: every main (cmd/*, examples/*, bench)
// is built with inlining off, so an inlined callee keeps its symbol,
// and -ldflags=-dumpdep prints each edge of the dead-code pass. A
// function is reached when its symbol appears in any program's edges.
// Declarations come from go/parser over the non-test files. Generic
// functions and methods of generic types are skipped: their symbols are
// per instantiation. A method kept alive through an interface counts as
// reached, the conservative direction.
//
// A ratchet: the command exits 1 on an unreached function the allowlist
// does not judge (one line each: package, name, reason), on a line with
// no reason, and on a line that names nothing unreached any more.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const (
	module    = "dnsamp"
	allowlist = "scripts/testonly_allowlist.txt"
)

// decl is one function declaration: its package directory, the name the
// allowlist uses (Func or Type.Method), its linker symbol, and its size.
type decl struct {
	pkg, name, sym string
	lines          int
}

func main() {
	mains, err := mainPackages()
	if err != nil {
		fail(err)
	}
	reached := map[string]bool{}
	for _, m := range mains {
		if err := linkEdges(m, reached); err != nil {
			fail(err)
		}
	}
	decls, err := internalDecls()
	if err != nil {
		fail(err)
	}
	allowed, bad, err := readAllowlist()
	if err != nil {
		fail(err)
	}

	unreached, lines := 0, 0
	listed := map[string]bool{}
	for _, d := range decls {
		if reached[d.sym] {
			continue
		}
		unreached, lines = unreached+1, lines+d.lines
		key := d.pkg + " " + d.name
		listed[key] = true
		if allowed[key] {
			fmt.Printf("%-22s %s\n", d.pkg, d.name)
			continue
		}
		fmt.Printf("%-22s %s   NOT ALLOWLISTED: delete it, or add it to %s with a reason\n", d.pkg, d.name, allowlist)
		bad++
	}
	var stale []string
	for key := range allowed {
		if !listed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		fmt.Printf("%s   STALE: reached by a program or gone; remove the line from %s\n", key, allowlist)
		bad++
	}
	fmt.Printf("%d of %d functions under internal/ (%d lines) reached by none of %d programs\n",
		unreached, len(decls), lines, len(mains))
	if bad > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "unreached:", err)
	os.Exit(2)
}

// mainPackages lists the module's programs: every directory under cmd/
// and examples/, and bench.
func mainPackages() ([]string, error) {
	mains := []string{"./bench"}
	for _, dir := range []string{"cmd", "examples"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if e.IsDir() {
				mains = append(mains, "./"+dir+"/"+e.Name())
			}
		}
	}
	return mains, nil
}

// linkEdges builds one program with the linker's dependency dump and
// adds every symbol of the module's internal packages it names.
func linkEdges(pkg string, reached map[string]bool) error {
	cmd := exec.Command("go", "build", "-o", os.DevNull, "-gcflags=all=-l", "-ldflags=-dumpdep", pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("building %s: %v\n%s", pkg, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		from, to, _ := strings.Cut(line, " -> ")
		for _, sym := range []string{from, strings.TrimSuffix(to, " <UsedInIface>")} {
			if strings.HasPrefix(sym, module+"/internal/") {
				reached[sym] = true
			}
		}
	}
	return nil
}

// internalDecls parses every non-test file under internal/ and returns
// its non-generic function declarations, init functions left out.
func internalDecls() ([]decl, error) {
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || fn.Type.TypeParams != nil || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			name, sym := fn.Name.Name, fn.Name.Name
			if fn.Recv != nil {
				recv, ptr := fn.Recv.List[0].Type, false
				if st, ok := recv.(*ast.StarExpr); ok {
					recv, ptr = st.X, true
				}
				typ, ok := recv.(*ast.Ident)
				if !ok {
					continue // a method of a generic type
				}
				name = typ.Name + "." + name
				if sym = name; ptr {
					sym = "(*" + typ.Name + ")." + fn.Name.Name
				}
			}
			decls = append(decls, decl{
				pkg:   dir,
				name:  name,
				sym:   module + "/" + dir + "." + sym,
				lines: fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1,
			})
		}
		return nil
	})
	return decls, err
}

// readAllowlist reads the judged entries, keyed "package name", and
// counts the lines that give no reason.
func readAllowlist() (map[string]bool, int, error) {
	f, err := os.Open(allowlist)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	allowed := map[string]bool{}
	bad := 0
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			fmt.Printf("%s:%d: no reason given for %s\n", allowlist, n, line)
			bad++
			if len(fields) < 2 {
				continue
			}
		}
		allowed[fields[0]+" "+fields[1]] = true
	}
	return allowed, bad, sc.Err()
}
