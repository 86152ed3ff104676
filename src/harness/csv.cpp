#include "harness/csv.hpp"

#include <fstream>
#include <sstream>

namespace bddmin::harness {

std::string records_to_csv(const std::vector<std::string>& names,
                           const std::vector<CallRecord>& records) {
  std::ostringstream os;
  os << "call,f_size,c_onset,lower_bound,min";
  for (const std::string& name : names) os << ",size_" << name;
  for (const std::string& name : names) os << ",sec_" << name;
  os << "\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const CallRecord& r = records[i];
    os << i << ',' << r.f_size << ',' << r.c_onset << ',' << r.lower_bound
       << ',' << r.min_size;
    for (const HeuristicResult& o : r.outcomes) os << ',' << o.size;
    for (const HeuristicResult& o : r.outcomes) os << ',' << o.seconds;
    os << "\n";
  }
  return os.str();
}

std::string csv_field(const std::string& value) {
  if (value.find_first_of(",\"\n\r") == std::string::npos) return value;
  std::string out = "\"";
  for (const char ch : value) {
    if (ch == '"') {
      out += "\"\"";
    } else if (ch == '\n' || ch == '\r') {
      out += ' ';
    } else {
      out += ch;
    }
  }
  out += '"';
  return out;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

}  // namespace bddmin::harness
