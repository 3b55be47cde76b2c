// One command-line parser for the CLI tools. A tool registers typed flags,
// each with the placeholder and help text its usage lists, plus section
// headings and free text; Parse() fills the registered variables and
// Usage() prints them back in registration order. Every numeric value must
// be one whole, in-range token: "3x0", "abc" and "" fail with an
// InvalidArgument naming the flag instead of silently becoming 3 or 0.
#ifndef URR_COMMON_FLAGS_H_
#define URR_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace urr {

class FlagSet {
 public:
  /// `title` is the first usage line ("urr_engine - ...").
  explicit FlagSet(std::string title) : title_(std::move(title)) {}

  /// Free usage text, printed as given.
  void Text(std::string text) {
    Add(Kind::kText, std::move(text), "", nullptr, "");
  }
  /// A blank line and a heading ("world:") before the flags that follow.
  void Section(const std::string& heading) { Text("\n" + heading); }

  /// Value flags `--name VALUE`; `value` is the usage placeholder and the
  /// help text may span lines with '\n'.
  void Flag(std::string name, std::string value, std::string* out,
            std::string help) {
    Add(Kind::kString, std::move(name), std::move(value), out, std::move(help));
  }
  void Flag(std::string name, std::string value, int* out, std::string help) {
    Add(Kind::kInt, std::move(name), std::move(value), out, std::move(help));
  }
  void Flag(std::string name, std::string value, uint64_t* out,
            std::string help) {
    Add(Kind::kUint64, std::move(name), std::move(value), out, std::move(help));
  }
  void Flag(std::string name, std::string value, double* out,
            std::string help) {
    Add(Kind::kDouble, std::move(name), std::move(value), out, std::move(help));
  }
  /// Switch `--name`: sets *out to true.
  void Flag(std::string name, bool* out, std::string help) {
    Add(Kind::kBool, std::move(name), "", out, std::move(help));
  }

  /// How many non-flag arguments Parse accepts (default 0).
  void AllowPositional(int max) { max_positional_ = max; }

  /// Parses argv[1..argc) into the registered variables and returns the
  /// positional arguments. `--help`/`-h` stops parsing (Main then prints
  /// the usage).
  Result<std::vector<std::string>> Parse(int argc, char** argv);

  std::string Usage() const;

  /// A tool's whole main(): on a parse error prints it and the usage and
  /// returns 2; for --help prints the usage and returns 0; otherwise runs
  /// `run` on the positional arguments and returns 1 (printing "error: ...")
  /// when it fails, 0 when it succeeds.
  int Main(int argc, char** argv,
           const std::function<Status(const std::vector<std::string>&)>& run);

 private:
  enum class Kind { kText, kString, kInt, kUint64, kDouble, kBool };
  struct Entry {
    Kind kind;
    std::string name;   // flag name, or the text of a kText entry
    std::string value;  // usage placeholder
    void* out;
    std::string help;
  };
  void Add(Kind kind, std::string name, std::string value, void* out,
           std::string help) {
    entries_.push_back(
        {kind, std::move(name), std::move(value), out, std::move(help)});
  }
  Status Set(const Entry& flag, std::string_view value) const;

  std::string title_;
  std::vector<Entry> entries_;
  int max_positional_ = 0;
  bool help_ = false;
};

/// Parses `token` as a whole decimal int; InvalidArgument naming `what`
/// otherwise (Parse uses it, and so do tools that split list-valued flags).
Result<int> ParseIntToken(std::string_view token, const std::string& what);

}  // namespace urr

#endif  // URR_COMMON_FLAGS_H_
