package lint

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"
)

// statsSurfaceMethods are the method names recognized as a stats
// struct's reporting surface: the enumerations that feed JSON dumps,
// tables and CLIs, the AppendRow encoder used by CSV time-series
// emitters (the obs interval sampler), and the WallRows enumeration the
// suite scheduler uses for its nondeterministic wall-time half. A
// counter that is incremented by the pipeline but missing from every
// surface method is a silently unreported statistic — exactly the bug
// class that makes a reproduction drift from the paper without failing
// any test.
var statsSurfaceMethods = map[string]bool{
	"Rows": true, "Dump": true, "DumpJSON": true, "MarshalJSON": true,
	"AppendRow": true, "WallRows": true,
}

// StatsComplete checks that every exported numeric field of a *Stats or
// *Metrics struct is reachable from the struct's dump surface (a Rows/
// Dump/DumpJSON/MarshalJSON/AppendRow/WallRows method, including the
// methods those call on the same type). Fields tagged `json:"-"` are
// deliberately unreported and exempt.
var StatsComplete = &Analyzer{
	Name: "statscomplete",
	Doc: "every exported numeric field of a *Stats or *Metrics struct must be " +
		"referenced from its dump surface (Rows/Dump/DumpJSON/MarshalJSON/AppendRow/WallRows)",
	Run: runStatsComplete,
}

func runStatsComplete(p *Pass) error {
	for _, f := range p.Files {
		if p.isTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !strings.HasSuffix(ts.Name.Name, "Stats") &&
					!strings.HasSuffix(ts.Name.Name, "Metrics") {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				p.checkStatsType(ts.Name.Name, st)
			}
		}
	}
	return nil
}

func (p *Pass) checkStatsType(typeName string, st *ast.StructType) {
	type field struct {
		name *ast.Ident
	}
	var fields []field
	for _, fd := range st.Fields.List {
		if !p.numericField(fd) || jsonOmitted(fd) {
			continue
		}
		for _, name := range fd.Names {
			if name.IsExported() {
				fields = append(fields, field{name})
			}
		}
	}
	if len(fields) == 0 {
		return
	}
	reached, haveSurface := p.surfaceFieldRefs(typeName)
	if !haveSurface {
		p.Reportf(st.Pos(), "%s has exported numeric counters but no dump surface: add a Rows/Dump/DumpJSON/MarshalJSON/AppendRow/WallRows method enumerating every field", typeName)
		return
	}
	for _, f := range fields {
		if !reached[f.name.Name] {
			p.Reportf(f.name.Pos(), "%s.%s is never referenced from the %s dump surface: the counter is collected but silently unreported", typeName, f.name.Name, typeName)
		}
	}
}

// numericField reports whether the field's type is counter-shaped —
// the shapes the pipeline uses for statistics.
func (p *Pass) numericField(fd *ast.Field) bool {
	tv, ok := p.TypesInfo.Types[fd.Type]
	if !ok {
		return false
	}
	return counterShape(tv.Type, true)
}

// counterShape reports whether t is a numeric basic type, an array of
// counters, or (at the field's top level only) a pure counter aggregate:
// a struct whose exported fields are all themselves counter-shaped —
// the shape of stats.Histogram and stats.TopDown. Aggregates embedded
// in a *Stats struct carry counters the same way scalar fields do, so
// skipping them would let a whole sub-account (e.g. the top-down slot
// buckets) go silently unreported.
func counterShape(t types.Type, allowStruct bool) bool {
	u := t.Underlying()
	if arr, ok := u.(*types.Array); ok {
		return counterShape(arr.Elem(), allowStruct)
	}
	if st, ok := u.(*types.Struct); ok {
		if !allowStruct {
			return false
		}
		exported := 0
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			exported++
			if !counterShape(f.Type(), false) {
				return false
			}
		}
		return exported > 0
	}
	b, ok := u.(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// jsonOmitted reports a `json:"-"` struct tag — the explicit opt-out.
func jsonOmitted(fd *ast.Field) bool {
	if fd.Tag == nil {
		return false
	}
	tag := strings.Trim(fd.Tag.Value, "`")
	return reflect.StructTag(tag).Get("json") == "-"
}

// surfaceFieldRefs walks the dump-surface methods of typeName — plus any
// same-type methods they call, transitively — and collects every field
// name referenced anywhere in those bodies.
func (p *Pass) surfaceFieldRefs(typeName string) (map[string]bool, bool) {
	methods := make(map[string]*ast.FuncDecl)
	for _, f := range p.Files {
		if p.isTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			if receiverTypeName(fd.Recv.List[0].Type) == typeName {
				methods[fd.Name.Name] = fd
			}
		}
	}
	reached := make(map[string]bool)
	var queue []string
	seen := make(map[string]bool)
	haveSurface := false
	for name := range methods {
		if statsSurfaceMethods[name] {
			haveSurface = true
			queue = append(queue, name)
			seen[name] = true
		}
	}
	for len(queue) > 0 {
		fd := methods[queue[0]]
		queue = queue[1:]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			reached[id.Name] = true
			// Follow helper methods on the same type (e.g. Rows calling
			// s.TotalMemPairs(), which reads the pair counters).
			if _, isMethod := methods[id.Name]; isMethod && !seen[id.Name] {
				seen[id.Name] = true
				queue = append(queue, id.Name)
			}
			return true
		})
	}
	return reached, haveSurface
}

// receiverTypeName unwraps *T / T receiver expressions to "T".
func receiverTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return receiverTypeName(e.X)
	}
	return ""
}
