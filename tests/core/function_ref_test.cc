// Unit tests for core::FunctionRef (src/core/function_ref.h): the
// two-word non-owning callable reference on the ParallelFor / fleet
// dispatch path. Covers every construction shape the scheduler hands it
// - mutable and const lambdas, capturing lambdas calling member
// functions, free and static member functions - plus the no-empty-state
// contract on the function-pointer overload.
#include "core/function_ref.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/check.h"

namespace gametrace::core {
namespace {

using VoidIntRef = FunctionRef<void(int)>;
using IntIntRef = FunctionRef<int(int)>;

int Twice(int x) { return 2 * x; }
int Thrice(int x) { return 3 * x; }

int Apply(IntIntRef f, int x) { return f(x); }

// --- lambdas --------------------------------------------------------------

TEST(FunctionRef, InvokesCapturingLambda) {
  int total = 0;
  std::vector<int> values{1, 2, 3};
  // Named callable on purpose: FunctionRef is non-owning, so binding a
  // *temporary* lambda would dangle at the call (the documented
  // must-outlive-every-invocation contract).
  auto add_scaled = [&](int scale) {
    for (int v : values) total += scale * v;
  };
  VoidIntRef add = add_scaled;
  add(10);
  EXPECT_EQ(total, 60);
}

TEST(FunctionRef, ConstCallableThroughConstReference) {
  const auto square = [](int x) { return x * x; };
  const IntIntRef ref = square;  // const callable, const FunctionRef
  EXPECT_EQ(ref(7), 49);
}

TEST(FunctionRef, MutableLambdaStateAdvancesAcrossCalls) {
  int calls = 0;
  auto counter = [&calls](int step) mutable { return calls += step; };
  IntIntRef ref = counter;
  EXPECT_EQ(ref(2), 2);
  EXPECT_EQ(ref(3), 5);
  EXPECT_EQ(calls, 5);
}

TEST(FunctionRef, LambdaCallingMemberFunction) {
  struct Accumulator {
    std::string log;
    void Append(int unit) { log += "u" + std::to_string(unit) + ";"; }
  };
  Accumulator acc;
  auto record = [&acc](int unit) { acc.Append(unit); };
  VoidIntRef ref = record;
  ref(4);
  ref(11);
  EXPECT_EQ(acc.log, "u4;u11;");
}

TEST(FunctionRef, ImplicitConversionAtCallSite) {
  // The scheduler passes lambdas straight into a FunctionRef parameter.
  EXPECT_EQ(Apply([](int x) { return x + 1; }, 41), 42);
}

TEST(FunctionRef, ReferenceAndValueArgumentsForwarded) {
  auto append_int = [](std::string& out, int v) { out += std::to_string(v); };
  FunctionRef<void(std::string&, int)> append = append_int;
  std::string out = "n=";
  append(out, 17);
  EXPECT_EQ(out, "n=17");
}

// --- free / static member functions ---------------------------------------

TEST(FunctionRef, InvokesFreeFunction) {
  IntIntRef ref = Twice;  // decays to function pointer
  EXPECT_EQ(ref(21), 42);
}

TEST(FunctionRef, ReseatsAcrossFreeFunctions) {
  IntIntRef ref = Twice;
  EXPECT_EQ(ref(5), 10);
  ref = Thrice;
  EXPECT_EQ(ref(5), 15);
}

TEST(FunctionRef, InvokesStaticMemberFunction) {
  struct Ops {
    static int Negate(int x) { return -x; }
  };
  IntIntRef ref = Ops::Negate;
  EXPECT_EQ(ref(8), -8);
}

// --- contract: no empty state ---------------------------------------------

TEST(FunctionRef, NullFunctionPointerViolatesContract) {
  int (*fn)(int) = nullptr;
  EXPECT_THROW(
      {
        IntIntRef ref = fn;
        (void)ref;
      },
      ContractViolation);
}

TEST(FunctionRef, IsTwoWordsAndTriviallyCopyable) {
  static_assert(sizeof(IntIntRef) == 2 * sizeof(void*));
  static_assert(std::is_trivially_copyable_v<IntIntRef>);
  IntIntRef a = Twice;
  IntIntRef b = a;  // copy refers to the same callable
  EXPECT_EQ(b(3), 6);
}

}  // namespace
}  // namespace gametrace::core
