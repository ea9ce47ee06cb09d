// Minimal XML tree writer: enough of the format to write IP-XACT component
// descriptions (elements, attributes, text; no DTDs, namespaces are treated
// as part of the tag name, as IP-XACT tooling conventionally does for the
// spirit:/ipxact: prefixes).
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace axihc {

class XmlNode {
 public:
  explicit XmlNode(std::string tag) : tag_(std::move(tag)) {}

  void set_text(std::string text) { text_ = std::move(text); }

  void set_attribute(const std::string& key, std::string value);

  XmlNode& add_child(std::string tag);
  /// Convenience: adds <tag>text</tag>.
  XmlNode& add_text_child(std::string tag, std::string text);

  /// Serializes with 2-space indentation and proper escaping.
  [[nodiscard]] std::string to_string() const;

 private:
  void write(std::string& out, int indent) const;

  std::string tag_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<std::unique_ptr<XmlNode>> children_;
};

/// Escapes &, <, >, ", ' for use in text/attribute content.
[[nodiscard]] std::string xml_escape(const std::string& raw);

}  // namespace axihc
