//===- minic/AST.cpp - MiniC AST anchors -----------------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "minic/AST.h"

#include <algorithm>

using namespace mcfi;
using namespace mcfi::minic;

// Out-of-line virtual anchors keep vtables in one object file.
Expr::~Expr() = default;
Stmt::~Stmt() = default;

Program::~Program() {
  for (Expr *E : Exprs)
    E->~Expr();
  for (Stmt *S : Stmts)
    S->~Stmt();
  for (VarDecl *V : Vars)
    V->~VarDecl();
  for (FuncDecl *F : Funcs)
    F->~FuncDecl();
}

void *Program::allocate(size_t Size) {
  constexpr size_t Align = alignof(std::max_align_t);
  Size = (Size + Align - 1) & ~(Align - 1);
  if (BlockUsed + Size > BlockSize) {
    // Blocks grow with the program, so a large one takes few of them.
    BlockSize = std::max<size_t>({4096, Size, 2 * BlockSize});
    Blocks.push_back(std::make_unique_for_overwrite<std::byte[]>(BlockSize));
    BlockUsed = 0;
  }
  void *P = Blocks.back().get() + BlockUsed;
  BlockUsed += Size;
  return P;
}
