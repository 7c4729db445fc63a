#include <gtest/gtest.h>

#include "reader/lexer.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"

namespace prore::reader {
namespace {

using term::TermRef;
using term::TermStore;

// ---- Lexer -----------------------------------------------------------------

std::vector<Token> Lex(const std::string& text) {
  Lexer lexer(text);
  auto result = lexer.Tokenize();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : std::vector<Token>{};
}

TEST(LexerTest, SimpleFact) {
  auto toks = Lex("father(john, mary).");
  ASSERT_GE(toks.size(), 7u);
  EXPECT_EQ(toks[0].kind, TokenKind::kAtom);
  EXPECT_EQ(toks[0].text, "father");
  EXPECT_TRUE(toks[0].functor_paren);
  EXPECT_EQ(toks[1].text, "(");
  EXPECT_EQ(toks[2].text, "john");
  EXPECT_EQ(toks[3].text, ",");
  EXPECT_EQ(toks[4].text, "mary");
  EXPECT_EQ(toks[5].text, ")");
  EXPECT_EQ(toks[6].kind, TokenKind::kEnd);
}

TEST(LexerTest, VariablesAndAnonymous) {
  auto toks = Lex("X _Foo _");
  EXPECT_EQ(toks[0].kind, TokenKind::kVariable);
  EXPECT_EQ(toks[1].kind, TokenKind::kVariable);
  EXPECT_EQ(toks[2].kind, TokenKind::kVariable);
  EXPECT_EQ(toks[2].text, "_");
}

TEST(LexerTest, SymbolicAtoms) {
  auto toks = Lex(":- X =.. Y, A \\== B.");
  EXPECT_EQ(toks[0].text, ":-");
  EXPECT_EQ(toks[2].text, "=..");
  EXPECT_EQ(toks[6].text, "\\==");
}

TEST(LexerTest, EndDotVsSymbolDot) {
  auto toks = Lex("a. b .c");
  // "a", end, "b", atom ".c"? No: ". c" — '.' followed by 'c' is symbolic.
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].kind, TokenKind::kEnd);
  EXPECT_EQ(toks[2].text, "b");
  // ".c" is not valid; '.' directly followed by 'c' lexes '.' as symbol atom.
  EXPECT_EQ(toks[3].kind, TokenKind::kAtom);
}

TEST(LexerTest, CommentsAreSkipped) {
  auto toks = Lex("a. % line comment\n/* block\ncomment */ b.");
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[2].text, "b");
}

TEST(LexerTest, QuotedAtoms) {
  auto toks = Lex("'hello world' 'it''s' 'a\\nb'");
  EXPECT_EQ(toks[0].text, "hello world");
  EXPECT_EQ(toks[1].text, "it's");
  EXPECT_EQ(toks[2].text, "a\nb");
}

TEST(LexerTest, IntegersAndCharCodes) {
  auto toks = Lex("42 0 0'a");
  EXPECT_EQ(toks[0].text, "42");
  EXPECT_EQ(toks[1].text, "0");
  EXPECT_EQ(toks[2].text, "97");
}

TEST(LexerTest, EmptyListAndCurlyAtoms) {
  auto toks = Lex("[] {}");
  EXPECT_EQ(toks[0].text, "[]");
  EXPECT_EQ(toks[1].text, "{}");
}

TEST(LexerTest, UnterminatedQuoteIsError) {
  Lexer lexer("'oops");
  EXPECT_FALSE(lexer.Tokenize().ok());
}

TEST(LexerTest, UnterminatedBlockCommentIsError) {
  Lexer lexer("/* oops");
  EXPECT_FALSE(lexer.Tokenize().ok());
}

// ---- Parser ----------------------------------------------------------------

class ParserTest : public ::testing::Test {
 protected:
  TermRef Parse(const std::string& text) {
    auto r = ParseQueryText(&store_, text);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->term : term::kNullTerm;
  }
  std::string RoundTrip(const std::string& text) {
    return WriteTerm(store_, Parse(text));
  }
  TermStore store_;
};

TEST_F(ParserTest, AtomsAndIntegers) {
  EXPECT_EQ(RoundTrip("foo."), "foo");
  EXPECT_EQ(RoundTrip("42."), "42");
  EXPECT_EQ(RoundTrip("-7."), "-7");
}

TEST_F(ParserTest, Structs) {
  EXPECT_EQ(RoundTrip("f(a,b,c)."), "f(a,b,c)");
  EXPECT_EQ(RoundTrip("f(g(h(x)))."), "f(g(h(x)))");
}

TEST_F(ParserTest, SameNameVariablesShareWithinClause) {
  TermRef t = Parse("f(X, X, Y).");
  TermRef x0 = store_.Deref(store_.arg(t, 0));
  TermRef x1 = store_.Deref(store_.arg(t, 1));
  TermRef y = store_.Deref(store_.arg(t, 2));
  EXPECT_EQ(x0, x1);
  EXPECT_NE(x0, y);
}

TEST_F(ParserTest, AnonymousVariablesAreDistinct) {
  TermRef t = Parse("f(_, _).");
  EXPECT_NE(store_.Deref(store_.arg(t, 0)), store_.Deref(store_.arg(t, 1)));
}

TEST_F(ParserTest, InfixOperators) {
  EXPECT_EQ(RoundTrip("1+2*3."), "1+2*3");
  EXPECT_EQ(RoundTrip("(1+2)*3."), "(1+2)*3");
  EXPECT_EQ(RoundTrip("X is Y+1."), "X is Y+1");
  EXPECT_EQ(RoundTrip("a:-b,c."), "a:-b,c");
}

TEST_F(ParserTest, LeftAssociativeMinus) {
  // 1-2-3 must parse as (1-2)-3 (yfx).
  TermRef t = Parse("1-2-3.");
  TermRef left = store_.Deref(store_.arg(t, 0));
  EXPECT_EQ(store_.tag(left), term::Tag::kStruct);
  EXPECT_EQ(store_.int_value(store_.Deref(store_.arg(t, 1))), 3);
}

TEST_F(ParserTest, RightAssociativeComma) {
  // (a,b,c) parses as ','(a, ','(b, c)).
  TermRef t = Parse("a,b,c.");
  EXPECT_EQ(store_.symbols().Name(store_.symbol(t)), ",");
  TermRef rest = store_.Deref(store_.arg(t, 1));
  EXPECT_EQ(store_.symbols().Name(store_.symbol(rest)), ",");
}

TEST_F(ParserTest, Lists) {
  EXPECT_EQ(RoundTrip("[1,2,3]."), "[1,2,3]");
  EXPECT_EQ(RoundTrip("[]."), "[]");
  EXPECT_EQ(RoundTrip("[a|T]."), "[a|T]");
  EXPECT_EQ(RoundTrip("[a,b|T]."), "[a,b|T]");
  EXPECT_EQ(RoundTrip("[[1,2],[3]]."), "[[1,2],[3]]");
}

TEST_F(ParserTest, IfThenElseShape) {
  TermRef t = Parse("(a -> b ; c).");
  EXPECT_EQ(store_.symbols().Name(store_.symbol(t)), ";");
  TermRef left = store_.Deref(store_.arg(t, 0));
  EXPECT_EQ(store_.symbols().Name(store_.symbol(left)), "->");
}

TEST_F(ParserTest, NegationPrefix) {
  TermRef t = Parse("\\+ foo(X).");
  EXPECT_EQ(store_.symbols().Name(store_.symbol(t)), "\\+");
  EXPECT_EQ(store_.arity(t), 1u);
}

TEST_F(ParserTest, PrefixMinusOnExpression) {
  EXPECT_EQ(RoundTrip("-(a)."), "-a");
  TermRef t = Parse("- X.");
  EXPECT_EQ(store_.symbols().Name(store_.symbol(t)), "-");
}

TEST_F(ParserTest, QuotedAtomFunctor) {
  EXPECT_EQ(RoundTrip("'my atom'(x)."), "'my atom'(x)");
}

TEST_F(ParserTest, CurlyBraces) {
  TermRef t = Parse("{a,b}.");
  EXPECT_EQ(store_.symbols().Name(store_.symbol(t)), "{}");
}

TEST_F(ParserTest, OperatorAtomAsArgument) {
  TermRef t = Parse("f(=).");
  TermRef a = store_.Deref(store_.arg(t, 0));
  EXPECT_EQ(store_.symbols().Name(store_.symbol(a)), "=");
}

TEST_F(ParserTest, MissingDotIsError) {
  TermStore s;
  EXPECT_FALSE(ParseProgramText(&s, "foo(a)").ok());
}

TEST_F(ParserTest, UnbalancedParenIsError) {
  TermStore s;
  EXPECT_FALSE(ParseProgramText(&s, "foo(a.").ok());
}

// ---- Program parsing --------------------------------------------------------

TEST(ProgramTest, ClausesGroupedByPredicate) {
  TermStore store;
  auto r = ParseProgramText(&store, R"(
    parent(C,P) :- mother(C,P).
    parent(C,P) :- mother(C,M), wife(P,M).
    mother(a, b).
    mother(c, b).
    wife(x, b).
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Program& p = *r;
  EXPECT_EQ(p.NumPreds(), 3u);
  EXPECT_EQ(p.NumClauses(), 5u);
  term::PredId parent{store.symbols().Intern("parent"), 2};
  EXPECT_EQ(p.ClausesOf(parent).size(), 2u);
  // Source order preserved.
  EXPECT_EQ(store.symbols().Name(p.pred_order()[0].name), "parent");
  EXPECT_EQ(store.symbols().Name(p.pred_order()[1].name), "mother");
}

TEST(ProgramTest, FactsGetTrueBody) {
  TermStore store;
  auto r = ParseProgramText(&store, "f(a).");
  ASSERT_TRUE(r.ok());
  term::PredId f{store.symbols().Intern("f"), 1};
  const Clause& c = r->ClausesOf(f)[0];
  EXPECT_EQ(store.symbols().Name(store.symbol(store.Deref(c.body))), "true");
}

TEST(ProgramTest, DirectivesCollected) {
  TermStore store;
  auto r = ParseProgramText(&store, ":- mode(foo(+, -)).\nfoo(a, b).");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->directives().size(), 1u);
}

TEST(ProgramTest, HeadSharingVariablesWithBody) {
  TermStore store;
  auto r = ParseProgramText(&store, "f(X) :- g(X).");
  ASSERT_TRUE(r.ok());
  term::PredId f{store.symbols().Intern("f"), 1};
  const Clause& c = r->ClausesOf(f)[0];
  EXPECT_EQ(store.Deref(store.arg(c.head, 0)),
            store.Deref(store.arg(store.Deref(c.body), 0)));
}

// ---- Writer ----------------------------------------------------------------

TEST(WriterTest, QuotesWhenNeeded) {
  TermStore store;
  EXPECT_EQ(WriteTerm(store, store.MakeAtom("hello world")),
            "'hello world'");
  EXPECT_EQ(WriteTerm(store, store.MakeAtom("foo")), "foo");
  EXPECT_EQ(WriteTerm(store, store.MakeAtom("Uppercase")), "'Uppercase'");
}

TEST(WriterTest, CanonicalWhenOperatorsDisabled) {
  TermStore store;
  auto r = ParseQueryText(&store, "1+2.");
  ASSERT_TRUE(r.ok());
  WriteOptions opts;
  opts.use_operators = false;
  EXPECT_EQ(WriteTerm(store, r->term, opts), "+(1,2)");
}

TEST(WriterTest, ClauseFormatting) {
  TermStore store;
  auto r = ParseProgramText(&store, "f(X) :- g(X), h(X).");
  ASSERT_TRUE(r.ok());
  term::PredId f{store.symbols().Intern("f"), 1};
  std::string text = WriteClause(store, r->ClausesOf(f)[0]);
  EXPECT_NE(text.find(":-"), std::string::npos);
  EXPECT_EQ(text.back(), '.');
}

TEST(WriterTest, RoundTripThroughParse) {
  TermStore store;
  const char* cases[] = {
      "f(a,B,[1,2|T])",  "a:-b;c",          "(p->q;r)",
      "\\+ x(Y)",        "X is 1+2*3-4",    "[a]",
      "f(-1)",           "g(h(i),j)",
  };
  for (const char* text : cases) {
    auto r1 = ParseQueryText(&store, std::string(text) + ".");
    ASSERT_TRUE(r1.ok()) << text;
    std::string written = WriteTerm(store, r1->term);
    auto r2 = ParseQueryText(&store, written + ".");
    ASSERT_TRUE(r2.ok()) << written;
    // Compare by re-writing (variable identity differs).
    EXPECT_EQ(written, WriteTerm(store, r2->term)) << text;
  }
}

// Unnamed variables are named from the clause itself (_G0, _G1, ... in
// first-occurrence order), so one clause renders the same in every store —
// a shard's arena, the main store, a re-parsed cache entry.
TEST(WriterTest, UnnamedVariablesRenderTheSameInEveryStore) {
  const char* source = "f(_, X, _) :- g(X, _), h(_).";
  std::string first;
  for (int padding = 0; padding < 3; ++padding) {
    TermStore store;
    for (int i = 0; i < padding * 7; ++i) store.MakeVar();
    auto r = ParseProgramText(&store, source);
    ASSERT_TRUE(r.ok());
    term::PredId f{store.symbols().Intern("f"), 3};
    const std::string text = WriteClause(store, r->ClausesOf(f)[0]);
    if (padding == 0) {
      first = text;
      EXPECT_EQ(text, "f(_G0,X,_G1) :-\n    g(X,_G2),\n    h(_G3).");
    }
    EXPECT_EQ(text, first) << "padding " << padding;
  }
}

// A source variable spelled like a generated name is never captured: the
// unnamed variables skip the spellings the clause already uses.
TEST(WriterTest, GeneratedNamesAvoidUserVariablesOfTheSameSpelling) {
  TermStore store;
  auto r = ParseProgramText(&store, "p(_G0, _, _G1) :- q(_, _G0).");
  ASSERT_TRUE(r.ok());
  term::PredId p{store.symbols().Intern("p"), 3};
  const std::string text = WriteClause(store, r->ClausesOf(p)[0]);
  EXPECT_EQ(text, "p(_G0,_G2,_G1) :-\n    q(_G3,_G0).");
  // Re-reading the text gives back a clause with the same sharing.
  auto again = ParseProgramText(&store, text);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(WriteClause(store, again->ClausesOf(p)[0]), text);
}

TEST(FloatSyntaxTest, LexAndParse) {
  TermStore store;
  auto r = ParseQueryText(&store, "3.14.");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(store.tag(store.Deref(r->term)), term::Tag::kFloat);
  EXPECT_DOUBLE_EQ(store.float_value(store.Deref(r->term)), 3.14);
  auto neg = ParseQueryText(&store, "-2.5.");
  ASSERT_TRUE(neg.ok());
  EXPECT_DOUBLE_EQ(store.float_value(store.Deref(neg->term)), -2.5);
}

TEST(FloatSyntaxTest, IntegerDotEndNotAFloat) {
  TermStore store;
  // "3." is the integer 3 followed by the end dot, not a float.
  auto r = ParseQueryText(&store, "3.");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(store.tag(store.Deref(r->term)), term::Tag::kInt);
}

TEST(FloatSyntaxTest, WriterRoundTrip) {
  TermStore store;
  term::TermRef f = store.MakeFloat(2.5);
  std::string text = WriteTerm(store, f);
  EXPECT_EQ(text, "2.5");
  term::TermRef whole = store.MakeFloat(4.0);
  // Must stay re-readable as a float.
  EXPECT_EQ(WriteTerm(store, whole), "4.0");
}

TEST(WriterSpacingTest, OperatorBeforeParenthesis) {
  TermStore store;
  // a -> (b ; c): the writer must not emit "->(" (functor application).
  auto r = ParseQueryText(&store, "x :- (a -> (b ; c) ; d).");
  ASSERT_TRUE(r.ok());
  std::string text = WriteTerm(store, r->term);
  TermStore fresh;
  auto back = ParseQueryText(&fresh, text + ".");
  ASSERT_TRUE(back.ok()) << text;
  EXPECT_EQ(WriteTerm(fresh, back->term), text);
}

TEST(WriterSpacingTest, NegativeNumberAfterMinus) {
  TermStore store;
  // 1 - (-2) must not fuse into "1--2".
  term::TermRef args[] = {store.MakeInt(1), store.MakeInt(-2)};
  term::TermRef t = store.MakeStruct("-", args);
  std::string text = WriteTerm(store, t);
  TermStore fresh;
  auto back = ParseQueryText(&fresh, text + ".");
  ASSERT_TRUE(back.ok()) << text;
  EXPECT_EQ(WriteTerm(fresh, back->term), text);
}

TEST(WriterSpacingTest, NegationOfConjunctionNeedsSpace) {
  TermStore store;
  // \\+ (a, b) must not print as \\+(a,b) which would re-read as '\\+'/2.
  auto r = ParseQueryText(&store, "\\+ (a, b).");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(store.arity(store.Deref(r->term)), 1u);
  std::string text = WriteTerm(store, r->term);
  TermStore fresh;
  auto back = ParseQueryText(&fresh, text + ".");
  ASSERT_TRUE(back.ok()) << text;
  EXPECT_EQ(fresh.arity(fresh.Deref(back->term)), 1u) << text;
}

TEST(OpDirectiveTest, UserOperatorParsesAfterDeclaration) {
  TermStore store;
  auto r = ParseProgramText(&store, R"(
    :- op(700, xfx, ===).
    check(X, Y) :- X === Y.
    likes(alice, bob).
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  term::PredId check{store.symbols().Intern("check"), 2};
  const Clause& c = r->ClausesOf(check)[0];
  TermRef body = store.Deref(c.body);
  EXPECT_EQ(store.symbols().Name(store.symbol(body)), "===");
  EXPECT_EQ(store.arity(body), 2u);
}

TEST(OpDirectiveTest, PrefixOperator) {
  TermStore store;
  auto r = ParseProgramText(&store, R"(
    :- op(650, fy, very).
    opinion(X) :- likes(very X).
    likes(very(prolog)).
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  term::PredId likes{store.symbols().Intern("likes"), 1};
  const Clause& f = r->ClausesOf(likes)[0];
  TermRef arg = store.Deref(store.arg(store.Deref(f.head), 0));
  EXPECT_EQ(store.symbols().Name(store.symbol(arg)), "very");
}

TEST(OpDirectiveTest, DoesNotLeakBetweenParsers) {
  TermStore store;
  auto r1 = ParseProgramText(&store, ":- op(700, xfx, ===).\nf(a === b).");
  ASSERT_TRUE(r1.ok());
  // A fresh parse without the directive must not know '==='.
  auto r2 = ParseProgramText(&store, "g(a === b).");
  EXPECT_FALSE(r2.ok());
}

TEST(OpDirectiveTest, BadDirectiveIsError) {
  TermStore store;
  EXPECT_FALSE(ParseProgramText(&store, ":- op(9999, xfx, bad).").ok());
  EXPECT_FALSE(ParseProgramText(&store, ":- op(500, sideways, bad).").ok());
  EXPECT_FALSE(ParseProgramText(&store, ":- op(X, xfx, bad).").ok());
}

// ---- Error-recovering program parse ----------------------------------------

TEST(RecoveringParseTest, CollectsEveryErrorAndKeepsGoodClauses) {
  TermStore store;
  std::vector<prore::Status> errors;
  Program program = ParseProgramTextRecovering(&store,
                                               "p(1).\n"
                                               "q(1, .\n"  // syntax error
                                               "r(1).\n"
                                               "s( , 2).\n"  // syntax error
                                               "t(1).\n",
                                               &errors);
  EXPECT_EQ(errors.size(), 2u);
  // Every well-formed clause survived the bad ones.
  EXPECT_EQ(program.NumClauses(), 3u);
}

TEST(RecoveringParseTest, CleanProgramHasNoErrors) {
  TermStore store;
  std::vector<prore::Status> errors;
  Program program =
      ParseProgramTextRecovering(&store, "p(1).\np(2) :- p(1).\n", &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(program.NumClauses(), 2u);
}

TEST(RecoveringParseTest, ErrorAfterTerminatorDoesNotSkipNextClause) {
  // A non-callable head errors AFTER its '.' was consumed; resync must not
  // eat the following good clause.
  TermStore store;
  std::vector<prore::Status> errors;
  Program program =
      ParseProgramTextRecovering(&store, "42.\np(1).\n", &errors);
  EXPECT_EQ(errors.size(), 1u);
  EXPECT_EQ(program.NumClauses(), 1u);
}

TEST(RecoveringParseTest, ConsecutiveBadClausesEachReported) {
  TermStore store;
  std::vector<prore::Status> errors;
  Program program = ParseProgramTextRecovering(
      &store, "p(1, .\nq(2, .\nr(3, .\nok(4).\n", &errors);
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_EQ(program.NumClauses(), 1u);
}

TEST(RecoveringParseTest, LexerErrorStopsWithOneError) {
  // An unterminated quoted atom is a lexer-level failure: not recoverable,
  // reported once with an empty program.
  TermStore store;
  std::vector<prore::Status> errors;
  Program program =
      ParseProgramTextRecovering(&store, "p('unterminated).\n", &errors);
  EXPECT_EQ(errors.size(), 1u);
  EXPECT_EQ(program.NumClauses(), 0u);
}

TEST(RecoveringParseTest, MissingFinalTerminatorIsReported) {
  TermStore store;
  std::vector<prore::Status> errors;
  Program program = ParseProgramTextRecovering(&store, "p(1).\nq(2)", &errors);
  EXPECT_EQ(errors.size(), 1u);
  EXPECT_EQ(program.NumClauses(), 1u);
}

}  // namespace
}  // namespace prore::reader
