// Reachability guard: every exported declaration under internal/ is reached
// from a binary (a main under cmd/, examples/ or bench/), or it is named in
// the allowlist below with the reason it stays. Every package is internal, so
// no importer outside this module can call an export a binary does not reach.
package repro_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed names the exported declarations that no binary reaches
// but that stay, as "pkg.Name" or "pkg.Type.Method". An entry that a binary
// reaches, or that no longer exists, fails the test, so the list only
// shrinks.
var unreachedAllowed = []struct{ name, kind, why string }{
	// Paper-number helpers that a root benchmark in bench_test.go calls;
	// ROADMAP item 1 turns each into a scorecard row.
	{"core.System.Figure3", "paper", "Figure 3: run-time linearity of one couple (§4.1)"},
	{"core.System.SimulatePhaseII", "paper", "§7: the phase II plan on the simulated grid"},
	{"costmodel.Measure", "paper", "Figure 3: measures the docking kernel's cost"},
	{"costmodel.Matrix.TopShare", "paper", "§4.2: share of the work in the heaviest couples"},
	{"project.Report.SpeedDownObserved", "paper", "Figure 8: the observed speed-down"},
	{"protein.TotalInstances", "paper", "§3: 49,481,544 MAXDo workunit instances"},
	{"protein.Dataset.MaxNsep", "paper", "Table 1: the largest separation count"},
	{"stats.Histogram.MaxBin", "paper", "Figure 2: the modal bin of the cost histogram"},
	{"stats.Series.YMax", "paper", "Figures 6-8: the peak of a weekly series"},
	{"validate.EstimateArchive", "paper", "§5.2: the result archive's size"},
	{"vftp.PaperSpeedDown", "paper", "§6: the measured net speed-down, 3.96"},
	{"vftp.PaperRedundancy", "paper", "§6: the measured redundancy, 1.37"},
	{"vftp.PaperTable2", "paper", "Table 2: VFTP equivalences"},
	{"wcg.DefaultServerCapacity", "paper", "§3.2: the task server's stated capacity"},
	{"wcg.ServerCapacity.LoadFor", "paper", "§3.2: the load a campaign puts on the server"},
	{"workunit.Plan.Count", "paper", "§4.2: the number of workunits a packaging makes"},

	// Test hooks: a test observes production state through them.
	{"costmodel.Matrix.Values", "hook", "tests compare whole matrices"},
	{"stats.Histogram.Total", "hook", "tests check a histogram's mass"},
	{"obs.Registry.Samples", "hook", "tests read recorded samples"},
	{"obs.Registry.NumSeries", "hook", "tests count registered series"},
	{"obs.Registry.Each", "hook", "tests walk every series"},
	{"obs.Sink.Lines", "hook", "tests read the lines a memory sink holds"},
	{"volunteer.NewShardKernel", "hook", "kernel tests build a bare kernel"},
	{"volunteer.Mux.Projects", "hook", "mux tests read the attachment table"},
	{"volunteer.Mux.Share", "hook", "mux tests read a tenant's share"},
	{"volunteer.Mux.Debts", "hook", "mux tests check that debts stay zero-sum"},
	{"wcg.Server.Deadline", "hook", "deadline tests read the policy's value"},

	// Test harness entry points: tests step the engine and the server
	// through them.
	{"sim.Engine.Run", "harness", "engine tests run to exhaustion"},
	{"sim.Engine.RunUntil", "harness", "engine tests run to a time"},
	{"sim.Engine.RunBefore", "harness", "engine tests run up to a time, exclusive"},
	{"sim.Engine.ScheduleAfter", "harness", "engine tests schedule relative to now"},
	{"wcg.Server.Complete", "harness", "server tests report a result without a host"},

	// Test oracle.
	{"stats.KolmogorovSmirnov", "oracle", "costmodel's Table 1 shape test"},

	// CI tooling: bench_test.go writes BENCH_campaign.json through them.
	{"experiment.AppendBenchRun", "ci", "records a bench row"},
	{"experiment.WriteBenchFile", "ci", "writes BENCH_campaign.json"},
}

// ifaceStd lists the methods that standard-library code calls through an
// interface or by reflection: fmt, errors, sort, container/heap,
// encoding/json and io.
var ifaceStd = []string{"String", "Error", "Len", "Less", "Swap", "Push", "Pop",
	"MarshalJSON", "UnmarshalJSON", "Read", "Write"}

// module holds every non-test package of the module and of bench/,
// type-checked with one shared Info.
type module struct {
	fset  *token.FileSet
	info  *types.Info
	dirs  map[string]*build.Package // by import path
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	std   types.Importer
}

func (m *module) Import(p string) (*types.Package, error) {
	bp, ok := m.dirs[p]
	if !ok {
		return m.std.Import(p)
	}
	if pkg, ok := m.pkgs[p]; ok {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(p, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[p], m.files[p] = pkg, files
	return pkg, nil
}

func loadModule(t *testing.T) *module {
	m := &module{
		fset:  token.NewFileSet(),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		dirs:  map[string]*build.Package{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		std:   importer.Default(),
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		var none *build.NoGoError
		if errors.As(err, &none) {
			return nil
		}
		m.dirs[path.Join("repro", filepath.ToSlash(p))] = bp
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range m.dirs {
		if _, err := m.Import(p); err != nil {
			t.Fatalf("type-checking %s: %v", p, err)
		}
	}
	return m
}

// reacher walks declarations from roots, marking every module-level
// function, method, type, variable and constant that a walked declaration
// names, and every method whose name an interface declares on a type it
// reaches.
type reacher struct {
	m       *module
	decl    map[types.Object]ast.Node // package-level object -> its declaration
	ifaces  map[string]bool           // method names callable through an interface
	reached map[types.Object]bool
	queue   []types.Object
}

func newReacher(m *module) *reacher {
	r := &reacher{m: m, decl: map[types.Object]ast.Node{}, ifaces: map[string]bool{}, reached: map[types.Object]bool{}}
	for _, name := range ifaceStd {
		r.ifaces[name] = true
	}
	for _, files := range m.files {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					r.decl[m.info.Defs[d.Name]] = d
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							r.decl[m.info.Defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, n := range s.Names {
								r.decl[m.info.Defs[n]] = s
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					iface := m.info.Types[it].Type.Underlying().(*types.Interface)
					for i := 0; i < iface.NumMethods(); i++ {
						r.ifaces[iface.Method(i).Name()] = true
					}
				}
				return true
			})
		}
	}
	return r
}

func (r *reacher) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if _, ok := r.decl[obj]; !ok || r.reached[obj] {
		return
	}
	r.reached[obj] = true
	r.queue = append(r.queue, obj)
}

// reachType reaches the named types t is built from.
func (r *reacher) reachType(t types.Type) {
	switch u := t.(type) {
	case *types.Pointer:
		r.reachType(u.Elem())
	case *types.Slice:
		r.reachType(u.Elem())
	case *types.Array:
		r.reachType(u.Elem())
	case *types.Map:
		r.reachType(u.Key())
		r.reachType(u.Elem())
	case *types.Named:
		r.reach(u.Origin().Obj())
		for i := 0; i < u.TypeArgs().Len(); i++ {
			r.reachType(u.TypeArgs().At(i))
		}
	}
}

func (r *reacher) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := r.m.info.Uses[id]; obj != nil {
				r.reach(obj)
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := r.m.info.Types[e]; ok {
				r.reachType(tv.Type)
			}
		}
		return true
	})
}

// run walks the declaration of every queued object until the queue is
// empty.
func (r *reacher) run() {
	for len(r.queue) > 0 {
		obj := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.walk(r.decl[obj])
		r.reachType(obj.Type())
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if meth := named.Method(i); r.ifaces[meth.Name()] {
						r.reach(meth)
					}
				}
			}
		}
	}
}

// lookup resolves an allowlist name in the module's internal packages.
func (m *module) lookup(name string) types.Object {
	parts := strings.Split(name, ".")
	for p, pkg := range m.pkgs {
		if !strings.HasPrefix(p, "repro/internal/") || pkg.Name() != parts[0] {
			continue
		}
		obj := pkg.Scope().Lookup(parts[1])
		if obj == nil || len(parts) == 2 {
			return obj
		}
		if named, ok := obj.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				if named.Method(i).Name() == parts[2] {
					return named.Method(i)
				}
			}
		}
	}
	return nil
}

// declName names obj as the allowlist does: pkg.Name or pkg.Type.Method.
func declName(obj types.Object) string {
	name := obj.Pkg().Name() + "." + obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			name = obj.Pkg().Name() + "." + t.(*types.Named).Obj().Name() + "." + obj.Name()
		}
	}
	return name
}

// TestEveryExportReachesABinary walks from every main, init and
// package-level variable initialiser, then from the allowlist, and fails on
// each exported declaration under internal/ that neither reaches. Methods
// count as reached through an interface when their type is reached and an
// interface of the module or of ifaceStd declares their name.
func TestEveryExportReachesABinary(t *testing.T) {
	m := loadModule(t)
	r := newReacher(m)

	// Roots: every main and init, and every package-level variable
	// initialiser.
	for _, files := range m.files {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
						r.walk(d)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						for _, s := range d.Specs {
							for _, v := range s.(*ast.ValueSpec).Values {
								r.walk(v)
							}
						}
					}
				}
			}
		}
	}
	r.run()

	seen := map[string]bool{}
	for _, a := range unreachedAllowed {
		if seen[a.name] {
			t.Errorf("allowlist names %s twice", a.name)
		}
		seen[a.name] = true
		obj := m.lookup(a.name)
		switch {
		case obj == nil:
			t.Errorf("stale allowlist entry %s (%s): it no longer exists", a.name, a.kind)
		case r.reached[obj]:
			t.Errorf("stale allowlist entry %s (%s): a binary reaches it now", a.name, a.kind)
		default:
			r.reach(obj)
		}
	}
	r.run()

	type miss struct {
		pos  token.Position
		name string
	}
	var unreached []miss
	for obj := range r.decl {
		pos := m.fset.Position(obj.Pos())
		if r.reached[obj] || !obj.Exported() || !strings.HasPrefix(filepath.ToSlash(pos.Filename), "internal/") {
			continue
		}
		unreached = append(unreached, miss{pos, declName(obj)})
	}
	sort.Slice(unreached, func(i, j int) bool {
		a, b := unreached[i].pos, unreached[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	for _, u := range unreached {
		t.Errorf("%s:%d %s: no binary reaches it; delete it or add it to unreachedAllowed",
			filepath.ToSlash(u.pos.Filename), u.pos.Line, u.name)
	}
}
