// perfbench_urr: runs one benchmark workload and writes its report as JSON.
// perfbench/run.py builds this binary, scrubs the environment, owns the
// temp directory and turns the report into the benchmark's result line.
//
//   perfbench_urr --workload stream-window|stream-online --seed N
//                 --trace 0|1 --tmp DIR --result FILE [--trace-out FILE]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "common/json_writer.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_urr --workload NAME --seed N --trace 0|1 "
               "--tmp DIR --result FILE [--trace-out FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string result_path;
  std::string trace_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--tmp") {
      options.tmp_dir = value;
    } else if (flag == "--result") {
      result_path = value;
    } else if (flag == "--trace-out") {
      trace_path = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.tmp_dir.empty() ||
      result_path.empty()) {
    Usage();
    return 2;
  }

  perfbench::Tracer tracer(options.trace);
  perfbench::Report report = perfbench::RunStream(options, &tracer);
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  for (const std::string& why : report.failures) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  if (options.trace && !trace_path.empty()) {
    const urr::Status st = tracer.Write(trace_path);
    if (!st.ok()) report.Fail("trace: " + st.ToString());
  }

  urr::JsonWriter w;
  w.BeginObject()
      .Field("correct", report.failures.empty())
      .Field("attempted", report.attempted)
      .Field("failed", report.failed)
      .Field("digest", report.digest);
  w.Key("metrics").BeginObject();
  for (const auto& [name, metric] : report.metrics) {
    w.Key(name)
        .BeginObject()
        .Field("value", metric.first)
        .Field("unit", metric.second)
        .EndObject();
  }
  w.EndObject().EndObject();
  std::FILE* f = std::fopen(result_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", w.str().c_str());
  std::fclose(f);
  return report.failures.empty() ? 0 : 1;
}
