#include "common/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <type_traits>

namespace urr {

namespace {

// Help text starts in this column; a longer flag pushes it to the next line.
constexpr size_t kHelpColumn = 26;

template <typename T>
Result<T> ParseWhole(std::string_view token, const std::string& what,
                     const char* expected) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  bool ok = !token.empty() && ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    return Status::InvalidArgument(what + " expects " + expected + ", got '" +
                                   std::string(token) + "'");
  }
  return value;
}

}  // namespace

Result<int> ParseIntToken(std::string_view token, const std::string& what) {
  return ParseWhole<int>(token, what, "an integer");
}

Status FlagSet::Set(const Entry& flag, std::string_view value) const {
  switch (flag.kind) {
    case Kind::kString:
      *static_cast<std::string*>(flag.out) = std::string(value);
      return Status::OK();
    case Kind::kInt: {
      URR_ASSIGN_OR_RETURN(*static_cast<int*>(flag.out),
                           ParseIntToken(value, flag.name));
      return Status::OK();
    }
    case Kind::kUint64: {
      URR_ASSIGN_OR_RETURN(
          *static_cast<uint64_t*>(flag.out),
          ParseWhole<uint64_t>(value, flag.name, "an unsigned integer"));
      return Status::OK();
    }
    case Kind::kDouble: {
      URR_ASSIGN_OR_RETURN(
          *static_cast<double*>(flag.out),
          ParseWhole<double>(value, flag.name, "a finite number"));
      return Status::OK();
    }
    default:
      return Status::OK();
  }
}

Result<std::vector<std::string>> FlagSet::Parse(int argc, char** argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      return positional;
    }
    if (arg.empty() || arg[0] != '-') {
      if (static_cast<int>(positional.size()) >= max_positional_) {
        return Status::InvalidArgument("unexpected argument: " + arg);
      }
      positional.push_back(arg);
      continue;
    }
    const Entry* flag = nullptr;
    for (const Entry& e : entries_) {
      if (e.kind != Kind::kText && e.name == arg) {
        flag = &e;
        break;
      }
    }
    if (flag == nullptr) return Status::InvalidArgument("unknown flag: " + arg);
    if (flag->kind == Kind::kBool) {
      *static_cast<bool*>(flag->out) = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument(arg + " needs a value");
    }
    URR_RETURN_NOT_OK(Set(*flag, argv[++i]));
  }
  return positional;
}

std::string FlagSet::Usage() const {
  std::string out = title_ + "\n";
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kText) {
      out += e.name + "\n";
      continue;
    }
    std::string left = "  " + e.name;
    if (!e.value.empty()) left += " " + e.value;
    out += left;
    if (left.size() + 1 >= kHelpColumn) {
      out += "\n" + std::string(kHelpColumn, ' ');
    } else {
      out += std::string(kHelpColumn - left.size(), ' ');
    }
    for (const char c : e.help) {
      out += c;
      if (c == '\n') out += std::string(kHelpColumn, ' ');
    }
    out += "\n";
  }
  return out;
}

int FlagSet::Main(
    int argc, char** argv,
    const std::function<Status(const std::vector<std::string>&)>& run) {
  const Result<std::vector<std::string>> args = Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    std::printf("%s", Usage().c_str());
    return 2;
  }
  if (help_) {
    std::printf("%s", Usage().c_str());
    return 0;
  }
  const Status st = run(*args);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace urr
