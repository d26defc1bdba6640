#include "src/core/bug_io.h"

#include <cstdio>

#include "src/support/record.h"
#include "src/support/strings.h"

namespace ddt {

namespace {

// Minimal escaping for the single-line string fields.
std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\\') {
      out += "\\\\";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string Unescape(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      out.push_back(s[i] == 'n' ? '\n' : s[i]);
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

}  // namespace

std::string SerializeBugs(const std::vector<Bug>& bugs) {
  std::string out = "ddt-bug-report v1\n";
  for (const Bug& bug : bugs) {
    out += "bug\n";
    out += StrFormat("type %d\n", static_cast<int>(bug.type));
    out += "title " + Escape(bug.title) + "\n";
    out += "details " + Escape(bug.details) + "\n";
    out += "driver " + Escape(bug.driver) + "\n";
    out += "checker " + Escape(bug.checker) + "\n";
    out += StrFormat("pc %u\n", bug.pc);
    out += StrFormat("state %llu\n", static_cast<unsigned long long>(bug.state_id));
    out += StrFormat("context %d\n", static_cast<int>(bug.context));
    for (const SolvedInput& input : bug.inputs) {
      out += StrFormat("input %d %llu %llu %u %llu %d %s %s\n",
                       static_cast<int>(input.origin.source),
                       static_cast<unsigned long long>(input.origin.aux),
                       static_cast<unsigned long long>(input.origin.seq), input.width,
                       static_cast<unsigned long long>(input.value), input.proximate ? 1 : 0,
                       Escape(input.var_name).c_str(), Escape(input.origin.label).c_str());
    }
    for (uint32_t crossing : bug.interrupt_schedule) {
      out += StrFormat("interrupt %u\n", crossing);
    }
    for (const auto& [seq, label] : bug.alternatives) {
      out += StrFormat("alternative %u %s\n", seq, Escape(label).c_str());
    }
    for (uint32_t slot : bug.workload_trail) {
      out += StrFormat("workload %u\n", slot);
    }
    if (!bug.fault_plan.label.empty()) {
      out += "fault-label " + Escape(bug.fault_plan.label) + "\n";
    }
    for (const FaultPoint& point : bug.fault_plan.points) {
      out += StrFormat("fault-point %d %u\n", static_cast<int>(point.cls), point.occurrence);
    }
    for (const InjectedFault& fault : bug.fault_schedule) {
      out += StrFormat("fault-injected %d %u %s\n", static_cast<int>(fault.cls), fault.occurrence,
                       Escape(fault.api).c_str());
    }
    for (const HwFaultPoint& point : bug.fault_plan.hw_points) {
      out += StrFormat("hw-fault-point %d %u\n", static_cast<int>(point.kind), point.index);
    }
    for (const InjectedHwFault& fault : bug.hw_fault_schedule) {
      out += StrFormat("hw-fault-injected %d %u\n", static_cast<int>(fault.kind), fault.index);
    }
    out += "trace " + Escape(FormatTrace(bug.trace, 60)) + "\n";
    out += "end\n";
  }
  return out;
}

Result<std::vector<Bug>> DeserializeBugs(const std::string& text) {
  std::vector<Bug> bugs;
  Bug current;
  bool in_bug = false;
  size_t pos = 0;
  bool saw_header = false;

  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() && pos > text.size()) {
      break;
    }
    if (!saw_header) {
      if (line != "ddt-bug-report v1") {
        return Status::Error("bug report: bad header");
      }
      saw_header = true;
      continue;
    }
    if (line == "bug") {
      if (in_bug) {
        return Status::Error("bug report: nested bug");
      }
      in_bug = true;
      current = Bug();
      continue;
    }
    if (line == "end") {
      if (!in_bug) {
        return Status::Error("bug report: stray end");
      }
      bugs.push_back(current);
      in_bug = false;
      continue;
    }
    if (!in_bug || line.empty()) {
      continue;
    }
    size_t space = line.find(' ');
    std::string key = line.substr(0, space);
    std::string value = space == std::string::npos ? "" : line.substr(space + 1);
    if (key == "type") {
      current.type = static_cast<BugType>(std::atoi(value.c_str()));
    } else if (key == "title") {
      current.title = Unescape(value);
    } else if (key == "details") {
      current.details = Unescape(value);
    } else if (key == "driver") {
      current.driver = Unescape(value);
    } else if (key == "checker") {
      current.checker = Unescape(value);
    } else if (key == "pc") {
      current.pc = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "state") {
      current.state_id = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "context") {
      current.context = static_cast<ExecContextKind>(std::atoi(value.c_str()));
    } else if (key == "input") {
      SolvedInput input;
      int source;
      unsigned long long aux;
      unsigned long long seq;
      unsigned width;
      unsigned long long val;
      int proximate;
      int consumed = 0;
      if (std::sscanf(value.c_str(), "%d %llu %llu %u %llu %d %n", &source, &aux, &seq, &width,
                      &val, &proximate, &consumed) != 6) {
        return Status::Error("bug report: bad input line: " + line);
      }
      input.origin.source = static_cast<VarOrigin::Source>(source);
      input.origin.aux = aux;
      input.origin.seq = seq;
      input.width = static_cast<uint8_t>(width);
      input.value = val;
      input.proximate = proximate != 0;
      std::string rest = value.substr(static_cast<size_t>(consumed));
      size_t sep = rest.find(' ');
      input.var_name = Unescape(rest.substr(0, sep));
      input.origin.label = sep == std::string::npos ? "" : Unescape(rest.substr(sep + 1));
      current.inputs.push_back(input);
    } else if (key == "interrupt") {
      current.interrupt_schedule.push_back(
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10)));
    } else if (key == "alternative") {
      size_t sep = value.find(' ');
      if (sep == std::string::npos) {
        return Status::Error("bug report: bad alternative line");
      }
      current.alternatives.emplace_back(
          static_cast<uint32_t>(std::strtoul(value.substr(0, sep).c_str(), nullptr, 10)),
          Unescape(value.substr(sep + 1)));
    } else if (key == "workload") {
      current.workload_trail.push_back(
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10)));
    } else if (key == "fault-label") {
      current.fault_plan.label = Unescape(value);
    } else if (key == "fault-point") {
      int cls;
      unsigned occurrence;
      if (std::sscanf(value.c_str(), "%d %u", &cls, &occurrence) != 2) {
        return Status::Error("bug report: bad fault-point line");
      }
      current.fault_plan.points.push_back(
          FaultPoint{static_cast<FaultClass>(cls), occurrence});
    } else if (key == "fault-injected") {
      int cls;
      unsigned occurrence;
      int consumed = 0;
      if (std::sscanf(value.c_str(), "%d %u %n", &cls, &occurrence, &consumed) != 2) {
        return Status::Error("bug report: bad fault-injected line");
      }
      InjectedFault fault;
      fault.cls = static_cast<FaultClass>(cls);
      fault.occurrence = occurrence;
      fault.api = Unescape(value.substr(static_cast<size_t>(consumed)));
      current.fault_schedule.push_back(fault);
    } else if (key == "hw-fault-point") {
      int kind;
      unsigned index;
      if (std::sscanf(value.c_str(), "%d %u", &kind, &index) != 2 || kind < 0 ||
          kind >= static_cast<int>(kNumHwFaultKinds)) {
        return Status::Error("bug report: bad hw-fault-point line");
      }
      current.fault_plan.hw_points.push_back(
          HwFaultPoint{static_cast<HwFaultKind>(kind), index});
    } else if (key == "hw-fault-injected") {
      int kind;
      unsigned index;
      if (std::sscanf(value.c_str(), "%d %u", &kind, &index) != 2 || kind < 0 ||
          kind >= static_cast<int>(kNumHwFaultKinds)) {
        return Status::Error("bug report: bad hw-fault-injected line");
      }
      InjectedHwFault fault;
      fault.kind = static_cast<HwFaultKind>(kind);
      fault.index = index;
      current.hw_fault_schedule.push_back(fault);
    } else if (key == "trace") {
      // Stored as rendered text; kept in `details` addendum rather than as
      // structured events (expression pointers cannot cross processes).
      // An empty trace (every deserialized bug's) adds nothing, so a second
      // round trip reproduces the first byte for byte.
      if (!value.empty()) {
        current.details += current.details.empty() ? "" : "\n";
        current.details += Unescape(value);
      }
    }
  }
  if (in_bug) {
    return Status::Error("bug report: truncated");
  }
  return bugs;
}

Status SaveBugsFile(const std::string& path, const std::vector<Bug>& bugs) {
  return WriteFileAtomic(path, SerializeBugs(bugs));
}

Result<std::vector<Bug>> LoadBugsFile(const std::string& path) {
  Result<std::string> text = ReadWholeFile(path);
  if (!text.ok()) {
    return text.status();
  }
  return DeserializeBugs(text.value());
}

}  // namespace ddt
