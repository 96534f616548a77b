// perfbench: the end-to-end benchmark binary.
//
//   perfbench --workload <graph-accept|geo-longlink|grid-stream|session-mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--corrupt] [--trace-out <file>]
//
// Prints one line per metric ("name value unit"), the run's facts, and as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer metrics of the traced run. --smoke
// shrinks every workload to seconds; --corrupt damages one build's output
// so the checks can be seen to count it (both for the self-test).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

int usage() {
    std::cerr << "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n"
                 "                 [--smoke] [--corrupt] [--trace-out FILE]\n";
    return 2;
}

bool parse(int argc, char** argv, perfbench::Args& args) {
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (arg == "--corrupt") {
            args.corrupt = true;
            continue;
        }
        if (value == nullptr) return false;
        ++i;
        char* end = nullptr;
        if (arg == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
        } else if (arg == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (!(args.seconds > 0.0)) return false;
        } else if (arg == "--trace") {
            const std::string_view v = value;
            if (v != "0" && v != "1") return false;
            args.trace = v == "1";
        } else if (arg == "--trace-out") {
            args.trace_out = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0') return false;
    }
    return have_workload;
}

std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

/// All significant digits: values are compared run to run.
std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Args args;
    if (!parse(argc, argv, args)) return usage();

    perfbench::Result result;
    try {
        result = perfbench::run_workload(args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    for (const perfbench::Metric& m : result.metrics) {
        std::cout << m.name << " " << number(m.value) << " " << m.unit << "\n";
    }
    const double failed_frac =
        static_cast<double>(result.failed) / static_cast<double>(result.attempted);
    std::cout << "failed_frac " << number(failed_frac) << " ratio (" << result.failed << " of "
              << result.attempted << " builds)\n";
    for (const std::string& note : result.notes) std::cout << note << "\n";
    for (const std::string& f : result.failures) std::cout << "FAILED: " << f << "\n";

    std::string facts = "{";
    for (std::size_t i = 0; i < result.facts.size(); ++i) {
        facts += (i ? ", " : "") + json_string(result.facts[i].first) + ": " +
                 json_string(result.facts[i].second);
    }
    std::cout << "facts " << facts << "}\n";

    std::string line = "{\"correct\": ";
    line += result.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(result.attempted);
    line += ", \"failed\": " + std::to_string(result.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const perfbench::Metric& m = result.metrics[i];
        line += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + number(m.value) +
                ", \"unit\": " + json_string(m.unit) + "}";
    }
    std::cout << line << "}}\n";
    return 0;
}
