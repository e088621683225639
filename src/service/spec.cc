#include "service/spec.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "constraints/parser.h"
#include "datagen/running_example.h"

namespace dbim {

namespace {

// Parses "relation Name(Attr1, Attr2, ...)".
bool ParseRelationLine(const std::string& line, std::shared_ptr<Schema>* out,
                       RelationId* relation, std::string* error) {
  const size_t open = line.find('(');
  const size_t close = line.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    *error = "malformed relation declaration: " + line;
    return false;
  }
  const std::string name(
      Trim(line.substr(strlen("relation"), open - strlen("relation"))));
  std::vector<std::string> attributes;
  for (const std::string& piece :
       Split(line.substr(open + 1, close - open - 1), ',')) {
    attributes.emplace_back(Trim(piece));
  }
  if (name.empty() || attributes.empty()) {
    *error = "relation needs a name and attributes: " + line;
    return false;
  }
  *out = std::make_shared<Schema>();
  *relation = (*out)->AddRelation(name, attributes);
  return true;
}

}  // namespace

bool ParseSpecText(const std::string& text, ServiceSpec* spec,
                   std::string* error) {
  std::istringstream in(text);
  std::shared_ptr<Schema> schema;
  std::string line;
  size_t line_number = 0;
  spec->constraints.clear();
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed(Trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (StartsWith(trimmed, "relation")) {
      if (!ParseRelationLine(trimmed, &schema, &spec->relation, error)) {
        return false;
      }
      continue;
    }
    if (schema == nullptr) {
      *error = StrFormat("line %zu: constraint before relation declaration",
                         line_number);
      return false;
    }
    std::string parse_error;
    auto dc = ParseDc(*schema, spec->relation, trimmed, &parse_error);
    if (!dc) {
      *error = StrFormat("line %zu: %s", line_number, parse_error.c_str());
      return false;
    }
    spec->constraints.push_back(std::move(*dc));
  }
  if (schema == nullptr) {
    *error = "spec has no relation declaration";
    return false;
  }
  if (spec->constraints.empty()) {
    *error = "spec has no constraints";
    return false;
  }
  spec->schema = schema;
  return true;
}

bool LoadSpecFile(const std::string& path, ServiceSpec* spec,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open spec file " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseSpecText(text.str(), spec, error);
}

ServiceSpec ExampleSpec() {
  RunningExample example = MakeRunningExample();
  ServiceSpec spec;
  spec.schema = example.schema;
  spec.relation = example.relation;
  spec.constraints = std::move(example.dcs);
  return spec;
}

bool SessionOptionsFromFlags(int argc, char** argv, SessionOptions* options,
                             std::string* error) {
  auto flag_value = [&](const char* name) -> std::string {
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc; ++i) {
      if (StartsWith(argv[i], prefix)) return argv[i] + prefix.size();
    }
    return "";
  };
  auto has_flag = [&](const char* name) {
    const std::string flag = std::string("--") + name;
    for (int i = 1; i < argc; ++i) {
      if (flag == argv[i]) return true;
    }
    return false;
  };

  *options = SessionOptions();
  const std::string threads = flag_value("threads");
  if (!threads.empty()) {
    uint64_t n = 0;
    if (!ParseUint(threads, SIZE_MAX, &n)) {
      *error = "invalid --threads=" + threads + " (want an integer >= 0)";
      return false;
    }
    options->WithThreads(n);
  }
  options->WithIncludeMC(has_flag("mc"));
  for (const std::string& name : Split(flag_value("measures"), ',')) {
    if (!name.empty()) options->WithMeasure(name);
  }
  const std::string window = flag_value("window");
  if (!window.empty()) {
    const std::vector<std::string> parts = Split(window, ':');
    uint64_t size = 0;
    if (parts.size() != 2 || (parts[0] != "count" && parts[0] != "ticks") ||
        !ParseUint(parts[1], UINT64_MAX, &size) || size == 0) {
      *error = "invalid --window=" + window +
               " (want count:N or ticks:N with N >= 1)";
      return false;
    }
    options->WithWindow(parts[0] == "count" ? WindowSpec::Kind::kCount
                                            : WindowSpec::Kind::kTicks,
                        size);
  }
  const std::string approx = flag_value("approx");
  if (!approx.empty()) {
    char* end = nullptr;
    const double eps = std::strtod(approx.c_str(), &end);
    // The negated comparison also rejects NaN; eps > 1 rejects +inf.
    if (end != approx.c_str() + approx.size() || !(eps > 0.0) || eps > 1.0) {
      *error = "invalid --approx=" + approx + " (want a number in (0, 1])";
      return false;
    }
    options->WithApprox(eps);
  }
  return true;
}

}  // namespace dbim
