// Unit tests for the OCR activation-condition expression language.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>

#include "ocr/expr.h"
#include "tests/test_util.h"

namespace biopera::ocr {
namespace {

/// Simple context: a map from dotted path strings to values.
class MapContext : public EvalContext {
 public:
  void Set(const std::string& path, Value v) { vars_[path] = std::move(v); }

  Result<Value> Lookup(
      const std::vector<std::string>& path) const override {
    std::string key;
    for (size_t i = 0; i < path.size(); ++i) {
      if (i) key += ".";
      key += path[i];
    }
    auto it = vars_.find(key);
    if (it == vars_.end()) return Status::NotFound("no " + key);
    return it->second;
  }

 private:
  std::map<std::string, Value> vars_;
};

Value EvalOrDie(const std::string& text, const EvalContext& ctx) {
  auto expr = Expr::Parse(text);
  EXPECT_TRUE(expr.ok()) << text << ": " << expr.status().ToString();
  auto v = expr->Eval(ctx);
  EXPECT_TRUE(v.ok()) << text << ": " << v.status().ToString();
  return v.ok() ? *v : Value();
}

struct EvalCase {
  const char* text;
  Value expected;
};

// Names each case by its expression text. Without this, gtest prints the
// struct's raw bytes, which start with the address of `text`; ASLR moves that
// address every run, so the test names would change every build.
void PrintTo(const EvalCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(c.text));
}

class ExprEval : public ::testing::TestWithParam<EvalCase> {};

TEST_P(ExprEval, EvaluatesAgainstFixture) {
  MapContext ctx;
  ctx.Set("wb.x", Value(10));
  ctx.Set("wb.name", Value("sp38"));
  ctx.Set("wb.flag", Value(true));
  ctx.Set("wb.pi", Value(3.5));
  ctx.Set("wb.nul", Value());
  ctx.Set("task.out.count", Value(7));
  EXPECT_EQ(EvalOrDie(GetParam().text, ctx), GetParam().expected)
      << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExprEval,
    ::testing::Values(
        EvalCase{"1 + 2 * 3", Value(7)},
        EvalCase{"(1 + 2) * 3", Value(9)},
        EvalCase{"10 / 4", Value(2)},          // integer division
        EvalCase{"10.0 / 4", Value(2.5)},      // double division
        EvalCase{"7 - 10", Value(-3)},
        EvalCase{"-wb.x", Value(-10)},
        EvalCase{"wb.x == 10", Value(true)},
        EvalCase{"wb.x != 10", Value(false)},
        EvalCase{"wb.x < 11", Value(true)},
        EvalCase{"wb.x <= 10", Value(true)},
        EvalCase{"wb.x > 10", Value(false)},
        EvalCase{"wb.x >= 11", Value(false)},
        EvalCase{"wb.pi > 3", Value(true)},
        EvalCase{"wb.name == \"sp38\"", Value(true)},
        EvalCase{"wb.name < \"zz\"", Value(true)},
        EvalCase{"true && false", Value(false)},
        EvalCase{"true || false", Value(true)},
        EvalCase{"!wb.flag", Value(false)},
        EvalCase{"!!wb.flag", Value(true)},
        EvalCase{"defined(wb.x)", Value(true)},
        EvalCase{"defined(wb.nul)", Value(false)},      // null = not defined
        EvalCase{"defined(wb.missing)", Value(false)},
        EvalCase{"!defined(wb.missing)", Value(true)},
        EvalCase{"wb.missing == null", Value(true)},
        EvalCase{"task.out.count + wb.x", Value(17)},
        EvalCase{"wb.x > 5 && task.out.count > 5", Value(true)},
        EvalCase{"wb.x > 5 && task.out.count > 7", Value(false)},
        EvalCase{"wb.x < 5 || wb.flag", Value(true)}));

TEST(ExprTest, ComparisonsDoNotChain) {
  // "a < b < c" style chains are rejected rather than silently
  // misinterpreted.
  EXPECT_FALSE(Expr::Parse("1 < 2 == true").ok());
}

TEST(ExprTest, ShortCircuitAvoidsEvaluatingRhs) {
  MapContext ctx;
  // wb.bad would fail as a comparison operand, but && short-circuits.
  ctx.Set("wb.bad", Value(Value::List{}));
  EXPECT_EQ(EvalOrDie("false && (wb.bad < 3)", ctx), Value(false));
  EXPECT_EQ(EvalOrDie("true || (wb.bad < 3)", ctx), Value(true));
}

TEST(ExprTest, TypeErrorsPropagate) {
  MapContext ctx;
  ctx.Set("wb.s", Value("text"));
  auto expr = Expr::Parse("wb.s * 2");
  ASSERT_TRUE(expr.ok());
  EXPECT_TRUE(expr->Eval(ctx).status().IsInvalidArgument());
  expr = Expr::Parse("wb.s < 3");
  ASSERT_TRUE(expr.ok());
  EXPECT_TRUE(expr->Eval(ctx).status().IsInvalidArgument());
}

TEST(ExprTest, DivisionByZero) {
  MapContext ctx;
  auto expr = Expr::Parse("1 / 0");
  ASSERT_TRUE(expr.ok());
  EXPECT_TRUE(expr->Eval(ctx).status().IsInvalidArgument());
  // Double division yields inf, not an error.
  EXPECT_TRUE(EvalOrDie("1.0 / 0.0", ctx).is_double());
}

TEST(ExprTest, UndefinedReferenceIsNull) {
  MapContext ctx;
  EXPECT_TRUE(EvalOrDie("wb.ghost", ctx).is_null());
}

TEST(ExprTest, ParseErrors) {
  EXPECT_FALSE(Expr::Parse("").ok());
  EXPECT_FALSE(Expr::Parse("1 +").ok());
  EXPECT_FALSE(Expr::Parse("(1").ok());
  EXPECT_FALSE(Expr::Parse("&& 1").ok());
  EXPECT_FALSE(Expr::Parse("defined(3)").ok());
  EXPECT_FALSE(Expr::Parse("defined wb.x").ok());
  EXPECT_FALSE(Expr::Parse("1 2").ok());
  EXPECT_FALSE(Expr::Parse("\"unterminated").ok());
}

TEST(ExprTest, ParseErrorMentionsOffset) {
  Status s = Expr::Parse("1 + ").status();
  EXPECT_NE(s.message().find("offset"), std::string::npos);
}

TEST(ExprTest, ToStringRoundTrip) {
  MapContext ctx;
  ctx.Set("wb.x", Value(10));
  for (const char* text :
       {"!defined(wb.queue_file) && wb.x > 0", "(1 + 2) * wb.x",
        "wb.x == 10 || wb.x < -3"}) {
    auto e1 = Expr::Parse(text);
    ASSERT_TRUE(e1.ok());
    auto e2 = Expr::Parse(e1->ToString());
    ASSERT_TRUE(e2.ok()) << e1->ToString();
    ASSERT_OK_AND_ASSIGN(Value v1, e1->Eval(ctx));
    ASSERT_OK_AND_ASSIGN(Value v2, e2->Eval(ctx));
    EXPECT_EQ(v1, v2);
  }
}

TEST(ExprTest, CollectRefs) {
  auto expr = Expr::Parse("wb.a > 1 && defined(t.out.b) || wb.a == wb.c");
  ASSERT_TRUE(expr.ok());
  std::vector<std::vector<std::string>> refs;
  expr->CollectRefs(&refs);
  ASSERT_EQ(refs.size(), 4u);
  EXPECT_EQ(refs[0], (std::vector<std::string>{"wb", "a"}));
  EXPECT_EQ(refs[1], (std::vector<std::string>{"t", "out", "b"}));
}

TEST(ExprTest, DottedPathsParse) {
  auto expr = Expr::Parse("alignment.out.results.count");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr->kind(), Expr::Kind::kRef);
  EXPECT_EQ(expr->ref_path().size(), 4u);
}

TEST(ExprTest, KeywordLiterals) {
  MapContext ctx;
  EXPECT_EQ(EvalOrDie("null == null", ctx), Value(true));
  EXPECT_EQ(EvalOrDie("true != false", ctx), Value(true));
}

}  // namespace
}  // namespace biopera::ocr
