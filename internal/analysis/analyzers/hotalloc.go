package analyzers

import (
	"go/ast"
	"go/types"
	"regexp"

	"fedmigr/internal/analysis"
)

// hotAllocZones are the compute kernel packages: allocations inside their
// kernels land on every training step of every client and dominate GC
// pressure. A steady-state step allocates nothing: tensor kernels write
// into the destination they are passed (the *Into forms) and every nn
// layer owns its outputs, growing them through tensor.Ensure only when a
// batch outgrows their capacity (DESIGN.md §5).
var hotAllocZones = []string{tensorPkg, nnPkg}

// kernelNameRE selects the hot functions within the zones: the math
// kernels and the layer Forward/Backward paths, including the halves a
// Backward splits into (accumulate, InputGrad and their *Grad helpers).
// Constructors, tests and cold setup helpers are exempt — allocating at
// model-build time is fine.
var kernelNameRE = regexp.MustCompile(`MatMul|Conv|Pool|Im2Col|Col2Im|GEMM|Forward|Backward|Softmax|Grad|accumulate`)

// HotAlloc flags per-step allocations inside tensor/nn kernels: make
// calls, slice-growing appends, interface boxing inside loops, and — in a
// layer's Forward/Backward or the halves a Backward splits into — the
// tensor constructors and copying arithmetic that return a fresh tensor.
// Two idioms are exempt because they amortize to zero allocations in
// steady state: a make guarded by a len/cap check (lazy realloc:
// `if cap(buf) < n { buf = make(...) }`) and append into a reset slice
// (`append(buf[:0], ...)`). Everything else
// should be a layer- or caller-owned buffer reshaped with tensor.Ensure.
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags make/append/boxing allocations inside tensor and nn kernel functions " +
		"(MatMul/Conv/Pool/Forward/Backward/...) and fresh-tensor calls (tensor.New/Clone/Map/Add/Sub) " +
		"inside nn Forward/Backward/InputGrad/accumulate methods; owned cap-guarded buffers (tensor.Ensure), " +
		"lazy reallocs and append-to-reset-slice are exempt",
	Run: runHotAlloc,
}

const (
	tensorPkg = "fedmigr/internal/tensor"
	nnPkg     = "fedmigr/internal/nn"
)

// freshTensorCalls are the tensor functions and methods that return a
// newly allocated tensor on every call.
var freshTensorCalls = map[string]bool{"New": true, "Clone": true, "Map": true, "Add": true, "Sub": true}

func runHotAlloc(pass *analysis.Pass) {
	if !inPackages(pass, hotAllocZones) {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !kernelNameRE.MatchString(fd.Name.Name) {
				continue
			}
			checkKernelAllocs(pass, fd.Body, false, false)
			if pass.Pkg.ImportPath == nnPkg && fd.Recv != nil {
				checkFreshTensors(pass, fd.Body)
			}
		}
	}
}

// checkFreshTensors flags calls into the tensor package that hand a layer
// a fresh tensor on every step.
func checkFreshTensors(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if ok && fn.Pkg() != nil && fn.Pkg().Path() == tensorPkg && freshTensorCalls[fn.Name()] {
			pass.Reportf(call.Pos(),
				"tensor.%s in a layer's Forward/Backward allocates a tensor every step: keep a layer-owned buffer and reshape it with tensor.Ensure (it grows only when a batch outgrows it)",
				fn.Name())
		}
		return true
	})
}

// checkKernelAllocs walks one kernel body. guarded is true inside an if
// whose condition inspects len/cap (the lazy-realloc idiom); inLoop is
// true inside for/range bodies, where boxing is additionally flagged.
func checkKernelAllocs(pass *analysis.Pass, n ast.Node, guarded, inLoop bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.IfStmt:
			g := guarded || condChecksCap(m.Cond)
			if m.Init != nil {
				checkKernelAllocs(pass, m.Init, guarded, inLoop)
			}
			checkKernelAllocs(pass, m.Cond, guarded, inLoop)
			checkKernelAllocs(pass, m.Body, g, inLoop)
			if m.Else != nil {
				checkKernelAllocs(pass, m.Else, g, inLoop)
			}
			return false
		case *ast.ForStmt:
			if m.Init != nil {
				checkKernelAllocs(pass, m.Init, guarded, inLoop)
			}
			checkKernelAllocs(pass, m.Body, guarded, true)
			return false
		case *ast.RangeStmt:
			checkKernelAllocs(pass, m.Body, guarded, true)
			return false
		case *ast.FuncLit:
			// Parallel region bodies (sched.ParallelFor closures) run per
			// step too: keep scanning, loop context preserved.
			return true
		case *ast.CallExpr:
			checkAllocCall(pass, m, guarded, inLoop)
		}
		return true
	})
}

func checkAllocCall(pass *analysis.Pass, call *ast.CallExpr, guarded, inLoop bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				if !guarded {
					pass.Reportf(call.Pos(),
						"make in kernel hot path allocates every step: write into a caller- or layer-owned buffer (tensor.Ensure), or amortize with a cap-guarded lazy realloc")
				}
			case "append":
				if !guarded && !appendToReset(call) {
					pass.Reportf(call.Pos(),
						"append in kernel hot path can grow the backing array every step: append into buf[:0] of an owned buffer, which stops growing once it fits the largest batch")
				}
			}
			return
		}
	}
	if inLoop {
		checkBoxing(pass, call)
	}
}

// appendToReset recognizes `append(x[:0], ...)` — reuse of an existing
// backing array, zero allocations once capacity has been reached.
func appendToReset(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	se, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok || se.Low != nil || se.High == nil {
		return false
	}
	lit, ok := ast.Unparen(se.High).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// condChecksCap reports whether an if condition inspects len or cap —
// the shape of every amortized lazy-realloc guard in the codebase
// (`if cap(buf) < n`, `if len(w.scratch) != rows*cols`).
func condChecksCap(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkBoxing flags non-interface values passed to interface-typed
// parameters inside kernel loops: each conversion heap-allocates the
// value. panic is exempt (it fires once, on the failure path).
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	tv, ok := pass.Pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.Pkg.Info.TypeOf(arg)
		if at == nil {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue
		}
		pass.Reportf(arg.Pos(),
			"interface boxing in kernel loop: passing a %s to an interface parameter heap-allocates every iteration — hoist the call out of the loop or keep the hot path monomorphic",
			at.String())
		return
	}
}
