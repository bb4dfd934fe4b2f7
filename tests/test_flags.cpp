#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dagsfc {
namespace {

Flags standard_flags() {
  Flags f;
  f.define_int("count", 10, "a count")
      .define_double("ratio", 0.5, "a ratio")
      .define_bool("verbose", false, "chatty")
      .define("name", "default", "a string");
  return f;
}

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), args);
  return v;
}

TEST(Flags, DefaultsApply) {
  Flags f = standard_flags();
  const auto argv = argv_of({});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.get_int("count"), 10);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 0.5);
  EXPECT_FALSE(f.get_bool("verbose"));
  EXPECT_EQ(f.get("name"), "default");
}

TEST(Flags, EqualsForm) {
  Flags f = standard_flags();
  const auto argv = argv_of({"--count=42", "--ratio=0.25", "--name=abc"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.get_int("count"), 42);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 0.25);
  EXPECT_EQ(f.get("name"), "abc");
}

TEST(Flags, SpaceForm) {
  Flags f = standard_flags();
  const auto argv = argv_of({"--count", "7"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.get_int("count"), 7);
}

TEST(Flags, BareBooleanSetsTrue) {
  Flags f = standard_flags();
  const auto argv = argv_of({"--verbose"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(f.get_bool("verbose"));
}

TEST(Flags, UnknownFlagRejected) {
  Flags f = standard_flags();
  const auto argv = argv_of({"--nope=1"});
  EXPECT_THROW(f.parse(static_cast<int>(argv.size()), argv.data()),
               std::invalid_argument);
}

TEST(Flags, PositionalRejected) {
  Flags f = standard_flags();
  const auto argv = argv_of({"stray"});
  EXPECT_THROW(f.parse(static_cast<int>(argv.size()), argv.data()),
               std::invalid_argument);
}

TEST(Flags, MissingValueRejected) {
  Flags f = standard_flags();
  const auto argv = argv_of({"--count"});
  EXPECT_THROW(f.parse(static_cast<int>(argv.size()), argv.data()),
               std::invalid_argument);
}

TEST(Flags, MalformedNumberRejectedOnRead) {
  Flags f = standard_flags();
  const auto argv = argv_of({"--count=12abc"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_THROW((void)f.get_int("count"), std::invalid_argument);
}

TEST(Flags, HelpRequested) {
  Flags f = standard_flags();
  const auto argv = argv_of({"--help"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(f.help_requested());
}

TEST(Flags, UsageListsAllFlags) {
  Flags f = standard_flags();
  const std::string u = f.usage("prog");
  for (const char* name : {"count", "ratio", "verbose", "name"}) {
    EXPECT_NE(u.find(std::string("--") + name), std::string::npos) << name;
  }
}

TEST(Flags, DuplicateDefinitionRejected) {
  Flags f;
  f.define_int("x", 1, "");
  EXPECT_THROW(f.define_int("x", 2, ""), std::invalid_argument);
}

TEST(Flags, UndefinedReadRejected) {
  Flags f = standard_flags();
  EXPECT_THROW((void)f.get("missing"), std::invalid_argument);
}

TEST(ParseDuration, AllUnits) {
  using std::chrono::nanoseconds;
  EXPECT_EQ(parse_duration("100ns"), nanoseconds(100));
  EXPECT_EQ(parse_duration("750us"), nanoseconds(750'000));
  EXPECT_EQ(parse_duration("250ms"), nanoseconds(250'000'000));
  EXPECT_EQ(parse_duration("1.5s"), nanoseconds(1'500'000'000));
  EXPECT_EQ(parse_duration("10m"), std::chrono::minutes(10));
  EXPECT_EQ(parse_duration("2h"), std::chrono::hours(2));
  EXPECT_EQ(parse_duration("0s"), nanoseconds(0));
  EXPECT_EQ(parse_duration("1e3ms"), std::chrono::seconds(1));
}

TEST(ParseDuration, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_duration(""), std::invalid_argument);
  EXPECT_THROW((void)parse_duration("100"), std::invalid_argument);  // no unit
  EXPECT_THROW((void)parse_duration("5x"), std::invalid_argument);
  EXPECT_THROW((void)parse_duration("-1s"), std::invalid_argument);
  EXPECT_THROW((void)parse_duration("1.5.2s"), std::invalid_argument);
  EXPECT_THROW((void)parse_duration("ms"), std::invalid_argument);
}

TEST(Flags, DurationFlagRoundTrips) {
  Flags f;
  f.define_duration("deadline", "250ms", "per-request deadline");
  const auto argv = argv_of({"--deadline=1.5s"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.get_duration("deadline"),
            std::chrono::nanoseconds(1'500'000'000));
}

TEST(Flags, DurationDefaultAppliesAndErrorsNameTheFlag) {
  Flags f;
  f.define_duration("backoff", "50us", "retry backoff");
  const auto argv = argv_of({});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.get_duration("backoff"), std::chrono::nanoseconds(50'000));

  Flags g;
  g.define_duration("backoff", "50us", "retry backoff");
  const auto bad = argv_of({"--backoff=oops"});
  g.parse(static_cast<int>(bad.size()), bad.data());
  try {
    (void)g.get_duration("backoff");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--backoff"), std::string::npos);
  }
}

TEST(Flags, DurationDefaultMustItselfParse) {
  Flags f;
  EXPECT_THROW(f.define_duration("deadline", "banana", ""),
               std::invalid_argument);
}

TEST(Flags, WorkersResolvesZeroToHardwareConcurrency) {
  Flags f;
  f.define_workers();
  const auto argv = argv_of({});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_GE(f.get_workers(), 1u);

  Flags g;
  g.define_workers(4);
  const auto four = argv_of({});
  g.parse(static_cast<int>(four.size()), four.data());
  EXPECT_EQ(g.get_workers(), 4u);

  Flags h;
  h.define_workers();
  const auto neg = argv_of({"--workers=-2"});
  h.parse(static_cast<int>(neg.size()), neg.data());
  EXPECT_THROW((void)h.get_workers(), std::invalid_argument);
}

TEST(Flags, CountReadsNonNegativeIntegers) {
  Flags f = standard_flags();
  const auto argv = argv_of({});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.get_count("count"), 10u);

  Flags g = standard_flags();
  const auto zero = argv_of({"--count=0"});
  g.parse(static_cast<int>(zero.size()), zero.data());
  EXPECT_EQ(g.get_count("count"), 0u);
}

TEST(Flags, NegativeCountIsATypedErrorNamingTheFlag) {
  // A negative count must not wrap to a huge size_t (a --trials=-1 run
  // would otherwise die in std::vector's length check).
  for (const char* value : {"--count=-1", "--count=-9223372036854775808"}) {
    SCOPED_TRACE(value);
    Flags f = standard_flags();
    const auto argv = argv_of({value});
    f.parse(static_cast<int>(argv.size()), argv.data());
    try {
      (void)f.get_count("count");
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "flag --count must be >= 0");
    }
    // The plain integer read still sees the value (seeds wrap on purpose).
    EXPECT_LT(f.get_int("count"), 0);
  }

  Flags w;
  w.define_workers();
  const auto neg = argv_of({"--workers=-3"});
  w.parse(static_cast<int>(neg.size()), neg.data());
  try {
    (void)w.get_workers();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --workers must be >= 0");
  }
}

}  // namespace
}  // namespace dagsfc
