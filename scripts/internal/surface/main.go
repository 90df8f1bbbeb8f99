// Command surface counts the module's exported surface:
//
//   - outside-unused: top-level names no other package's non-test code uses;
//   - test-only, test-only-methods: names and methods that no non-test code
//     reaches, so only tests or nothing;
//   - knobs: flags defined in cmd/, With* funcs, *Config/*Options fields.
//
// The report lists the names behind each counter: a flag as <cmd>:-<name>,
// a field as pkg.Config.Field.
//
// It type-checks the module's non-test files (tests are never users). A
// use is a types.Info.Uses entry outside `var _ I = T{}` assertions and
// method receivers. A method implementing a module interface, error or one
// of stdInterfaces is reached, and so are Is, As and Unwrap on errors.
//
//	go run ./scripts/internal/surface                            # report
//	go run ./scripts/internal/surface -check scripts/surface.txt # ratchet
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

var (
	counters = []string{"outside-unused", "test-only", "test-only-methods", "knobs"}
	// stdInterfaces are the library's interfaces a value is handed over as.
	stdInterfaces = strings.Fields(`fmt.Stringer net.Error sort.Interface flag.Value io.Reader io.Writer
		io.Closer io.Seeker io.ReaderAt io.WriterAt io.ReaderFrom io.WriterTo io.ByteScanner io.ByteWriter
		io.RuneScanner io.StringWriter encoding.TextMarshaler encoding.TextUnmarshaler encoding.BinaryMarshaler
		encoding.BinaryUnmarshaler encoding/json.Marshaler encoding/json.Unmarshaler`)
	// flagKinds name the flag definers: each Kind, KindVar, and Var.
	flagKinds = " Bool Int Int64 Uint Uint64 String Float64 Duration Func BoolFunc Text  "
)

const declared, method, reached, outside = 1, 2, 4, 8 // bits of scanner.state

type listPkg struct {
	ImportPath, Dir, Export string
	GoFiles, Imports        []string
	pkg                     *types.Package
}

type scanner struct {
	fset   *token.FileSet
	cmd    string // the module's cmd directory
	mod    map[string]*listPkg
	gc     types.Importer
	state  map[string]int // by key
	knobs  []string
	named  []*types.TypeName
	ifaces []*types.Interface
}

// Report is what one scan counts; the lists hold sorted pkg.Name keys.
type Report struct {
	Counts                           map[string]int
	Inside, TestOnly, Methods, Knobs []string
}

func goList(dir string, args ...string) (pkgs []*listPkg, err error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	for dec := json.NewDecoder(bytes.NewReader(out)); err == nil && dec.More(); {
		pkgs = append(pkgs, new(listPkg))
		err = dec.Decode(pkgs[len(pkgs)-1])
	}
	return pkgs, err
}

// Scan type-checks the module rooted at dir and counts its surface.
func Scan(dir string) (*Report, error) {
	s := &scanner{fset: token.NewFileSet(), mod: map[string]*listPkg{}, state: map[string]int{}}
	s.cmd, _ = filepath.Abs(filepath.Join(dir, "cmd"))
	pkgs, err := goList(dir, "./...")
	deps := []string{"-export", "-deps", "fmt", "io", "net", "sort", "flag", "encoding", "encoding/json"}
	for _, p := range pkgs {
		s.mod[p.ImportPath] = p
		deps = append(deps, p.Imports...)
	}
	std, err2 := goList(dir, deps...)
	if err != nil || err2 != nil {
		return nil, fmt.Errorf("go list: %v, %v", err, err2)
	}
	export := map[string]string{}
	for _, p := range std {
		export[p.ImportPath] = p.Export
	}
	s.gc = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(export[path]) })
	s.ifaces = []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, want := range stdInterfaces {
		dot := strings.LastIndex(want, ".")
		pkg, err := s.gc.Import(want[:dot])
		if err != nil {
			return nil, err
		}
		s.ifaces = append(s.ifaces, pkg.Scope().Lookup(want[dot+1:]).Type().Underlying().(*types.Interface))
	}
	for _, p := range pkgs {
		if _, err = s.Import(p.ImportPath); err != nil {
			return nil, err
		}
	}
	return s.report(), nil
}

// Import serves module packages from source and the rest from export data.
func (s *scanner) Import(path string) (pkg *types.Package, err error) {
	if p := s.mod[path]; p == nil {
		return s.gc.Import(path)
	} else if p.pkg == nil {
		p.pkg, err = s.check(path, p.Dir, p.GoFiles)
	}
	return s.mod[path].pkg, err
}

// check type-checks one package and records its uses and declarations.
func (s *scanner) check(path, dir string, names []string) (*types.Package, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, n), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	// Identifiers in `var _ ... = ...` and receivers name a type, not use it.
	skip, calls := map[*ast.Ident]bool{}, map[*ast.Ident]*ast.CallExpr{}
	for _, f := range files {
		end := token.NoPos // of the assertion or receiver being walked
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					calls[sel.Sel] = call
				}
			}
			if id, ok := n.(*ast.Ident); ok && id.Pos() < end {
				skip[id] = true
			} else if vs, ok := n.(*ast.ValueSpec); ok && len(vs.Names) == 1 && vs.Names[0].Name == "_" {
				end = vs.End()
			} else if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv != nil {
				end = fd.Recv.End()
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if skip[id] || obj.Pkg() == nil {
			continue
		} else if _, ok := obj.(*types.Func); ok && obj.Pkg().Path() == "flag" && strings.HasPrefix(s.fset.Position(id.Pos()).Filename,
			s.cmd+string(filepath.Separator)) && strings.Contains(flagKinds, " "+strings.TrimSuffix(obj.Name(), "Var")+" ") {
			s.knobs = append(s.knobs, filepath.Base(dir)+":-"+flagName(calls[id], obj.Name()))
		}
		if s.state[key(obj)] |= reached; obj.Pkg().Path() != path {
			s.state[key(obj)] |= outside
		}
	}
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		tn, isType := obj.(*types.TypeName)
		n, _ := obj.Type().(*types.Named)
		if isType && tn.IsAlias() {
			continue
		} else if it, ok := obj.Type().Underlying().(*types.Interface); ok && isType && n.TypeParams() == nil {
			s.ifaces = append(s.ifaces, it)
		} else if isType && n.TypeParams() == nil {
			s.named = append(s.named, tn)
		}
		if !obj.Exported() || pkg.Name() == "main" {
			continue
		} else if _, ok := obj.(*types.Func); ok && strings.HasPrefix(name, "With") {
			s.knobs = append(s.knobs, key(obj))
		}
		s.state[key(obj)] |= declared
		st, ok := obj.Type().Underlying().(*types.Struct)
		for i := 0; ok && isType && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) && i < st.NumFields(); i++ {
			if st.Field(i).Exported() {
				s.knobs = append(s.knobs, key(obj)+"."+st.Field(i).Name())
			}
		}
		for i := 0; isType && !types.IsInterface(n) && i < n.NumMethods(); i++ {
			if m := n.Method(i); m.Exported() {
				s.state[key(m)] |= declared | method
			}
		}
	}
	return pkg, nil
}

// flagName is the name a flag definer's call gives its flag: the first
// argument, or the second for the *Var forms, which take the variable first.
func flagName(call *ast.CallExpr, definer string) string {
	i := 0
	if strings.HasSuffix(definer, "Var") {
		i = 1
	}
	if call != nil && i < len(call.Args) {
		if lit, ok := call.Args[i].(*ast.BasicLit); ok {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				return name
			}
		}
	}
	return "?"
}

// key names a package-level object pkg.Name and a concrete method
// pkg.Type.Method (the instantiations of a generic type share its key).
func key(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
		t := types.Unalias(f.Type().(*types.Signature).Recv().Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if n, ok := t.(*types.Named); ok && !types.IsInterface(n) && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + n.Obj().Name() + "." + obj.Name()
		}
	} else if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return ""
}

// report adds the methods that interfaces reach and classifies the names.
func (s *scanner) report() *Report {
	for _, tn := range s.named {
		ptr := types.NewPointer(tn.Type())
		for j, it := range s.ifaces {
			var via []string
			for i := 0; it.IsMethodSet() && types.Implements(ptr, it) && i < it.NumMethods(); i++ {
				if via = append(via, it.Method(i).Name()); j == 0 { // error
					via = append(via, "Is", "As", "Unwrap")
				}
			}
			for _, m := range via {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, tn.Pkg(), m)
				s.state[key(obj)] |= reached
			}
		}
	}
	r := &Report{Counts: map[string]int{"knobs": len(s.knobs)}, Knobs: s.knobs}
	for k, v := range s.state {
		switch {
		case v&(declared|reached|method) == declared|method:
			r.Methods = append(r.Methods, k)
		case v&(declared|reached) == declared:
			r.TestOnly = append(r.TestOnly, k)
		case v&(declared|method|outside) == declared:
			r.Inside = append(r.Inside, k)
		}
	}
	for _, l := range [][]string{r.Inside, r.TestOnly, r.Methods, r.Knobs} {
		sort.Strings(l)
	}
	r.Counts["outside-unused"], r.Counts["test-only"], r.Counts["test-only-methods"] = len(r.Inside)+len(r.TestOnly), len(r.TestOnly), len(r.Methods)
	return r
}

// Check holds r to a ratchet file of `<counter> <limit>` lines and
// `keep <name> <reason>` lines, one per top-level test-only name.
func (r *Report) Check(file []byte) (problems []string) {
	limits, keep := map[string]int{}, map[string]bool{}
	for _, line := range strings.Split(string(file), "\n") {
		name, reason, limit := "", "", 0
		if n, _ := fmt.Sscanf(line, "keep %s %s", &name, &reason); n == 2 {
			keep[name] = true
		} else if n, _ := fmt.Sscanf(line, "%s %d", &name, &limit); n == 2 {
			limits[name] = limit
		}
	}
	for _, c := range counters {
		if limit, ok := limits[c]; !ok || r.Counts[c] > limit {
			problems = append(problems, fmt.Sprintf("%s is %d, above its limit %d (or no limit line)", c, r.Counts[c], limit))
		}
	}
	for _, n := range r.TestOnly {
		if !keep[n] {
			problems = append(problems, "test-only name not on the keep list: "+n)
		}
	}
	return problems
}

func main() {
	check := flag.String("check", "", "ratchet `file`: fail if a counter rises above it or a test-only name is not kept")
	flag.Parse()
	r, err := Scan(".")
	if err != nil {
		log.Fatal(err)
	} else if *check == "" {
		for _, c := range counters {
			fmt.Println(c, r.Counts[c])
		}
		for i, names := range [][]string{r.Inside, r.TestOnly, r.Methods, r.Knobs} {
			for _, n := range names {
				fmt.Println([...]string{"inside-only", "test-only", "test-only-method", "knob"}[i], n)
			}
		}
	} else if file, err := os.ReadFile(*check); err != nil {
		log.Fatal(err)
	} else if problems := r.Check(file); len(problems) > 0 {
		log.Fatal(strings.Join(problems, "\n"))
	}
}
